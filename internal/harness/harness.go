// Package harness regenerates every table and figure of the paper's
// evaluation (see DESIGN.md section 4 for the experiment index). Each
// experiment returns a formatted text block — the same rows the paper
// reports — plus enough structure for the benchmarks to assert shapes.
// Both `go test -bench` (bench_test.go) and the benchtab binary call
// into this package, so printed artifacts and asserted numbers can
// never drift apart.
package harness

import (
	"fmt"
	"strings"
	"time"

	"trust/internal/core"
	"trust/internal/device"
	"trust/internal/fingerprint"
	"trust/internal/flock"
	"trust/internal/protocol"
	"trust/internal/sim"
	"trust/internal/touch"
	"trust/internal/touchscreen"
	"trust/internal/webserver"
)

// Seed is the default experiment seed; every experiment is
// deterministic given its seed.
const Seed = 2012

// Result is one regenerated artifact.
type Result struct {
	ID    string // e.g. "table1", "fig7", "x-placement"
	Title string
	Text  string // formatted rows
	// Metrics carries the headline numbers for programmatic checks.
	Metrics map[string]float64
}

func (r Result) String() string {
	return fmt.Sprintf("=== %s: %s ===\n%s", strings.ToUpper(r.ID), r.Title, r.Text)
}

// stdRig builds the standard single-user deployment used by several
// experiments: optimized placement from the reference users, one
// device enrolled for user1, one bank server.
type stdRig struct {
	world  *core.World
	server *webserver.Server
	dev    *device.Device
	user   string
	now    time.Duration
	// lastLoginSubmit is kept for the Fig 10 wire-size accounting.
	lastLoginSubmit *protocol.LoginSubmit
}

func newStdRig(seed uint64) (*stdRig, error) {
	w, err := core.NewWorld(seed)
	if err != nil {
		return nil, err
	}
	srv, err := w.AddServer("bank.example")
	if err != nil {
		return nil, err
	}
	const user = "user1-right-thumb"
	dev, err := w.AddDevice("phone-1", user, "bank.example")
	if err != nil {
		return nil, err
	}
	return &stdRig{world: w, server: srv, dev: dev, user: user}, nil
}

// loginFlow registers and logs the rig's user in, returning the
// measured FLock-side login latency (panel+scan+match of the verifying
// touch).
func (r *stdRig) loginFlow(account string) error {
	now, err := r.world.TouchButtonUntilVerified(r.dev, r.user, r.now)
	if err != nil {
		return err
	}
	r.now = now
	if err := r.dev.Register(r.now, account, "recovery-pw"); err != nil {
		return err
	}
	now, err = r.world.TouchButtonUntilVerified(r.dev, r.user, r.now)
	if err != nil {
		return err
	}
	r.now = now
	return r.dev.Login(r.now, r.server.Certificate(), account)
}

// localDeviceRig builds a LocalDevice on the optimized placement.
func localDeviceRig(seed uint64, policy core.LocalPolicy) (*core.LocalDevice, *core.World, error) {
	w, err := core.NewWorld(seed)
	if err != nil {
		return nil, nil, err
	}
	ca := w.CA
	mod, err := flock.New(flock.DefaultConfig(w.Place), ca, "local-phone", seed+5)
	if err != nil {
		return nil, nil, err
	}
	u := w.Users["user1-right-thumb"]
	if err := mod.Enroll(fingerprint.NewTemplate(u.Finger)); err != nil {
		return nil, nil, err
	}
	ld, err := core.NewLocalDevice(mod, policy, w.Place.Sensors[0])
	if err != nil {
		return nil, nil, err
	}
	return ld, w, nil
}

// measureIntegrated measures the integrated scheme's verified-capture
// rate over a natural session and the module-side login latency.
func measureIntegrated(seed uint64) (coverage float64, loginLatency time.Duration, err error) {
	ld, w, err := localDeviceRig(seed, core.DefaultLocalPolicy())
	if err != nil {
		return 0, 0, err
	}
	u := w.Users["user1-right-thumb"]
	rng := sim.NewRNG(seed ^ 0xabc)
	s, err := touch.GenerateSession(u.Model, w.Screen, 600, rng)
	if err != nil {
		return 0, 0, err
	}
	report, err := core.RunLocalSession(ld, s, u.Finger, nil, -1)
	if err != nil {
		return 0, 0, err
	}
	// Login latency: a single verifying touch through the pipeline.
	mod := ld.Module
	var lat time.Duration
	pos := w.Place.Sensors[0].Center()
	for i := 0; i < 50; i++ {
		ev := touch.Event{At: time.Duration(i+10000) * time.Second, Pos: pos, Pressure: 0.7, RadiusMM: 4.2, SpeedMMS: 1}
		out := mod.HandleTouch(ev, u.Finger)
		if out.Kind == flock.Matched {
			lat = out.Total
			break
		}
	}
	if lat == 0 {
		return 0, 0, fmt.Errorf("harness: login touch never verified")
	}
	return report.CaptureRate(), lat, nil
}

// fmtTable renders rows of cells with aligned columns.
func fmtTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&sb, "%-*s", widths[i]+2, c)
		}
		sb.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		sb.WriteString(strings.Repeat("-", w))
		if i < len(widths)-1 {
			sb.WriteString("  ")
		}
	}
	sb.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	return sb.String()
}

// panelConfig is the shared touchscreen config.
func panelConfig() touchscreen.Config { return touchscreen.DefaultConfig() }

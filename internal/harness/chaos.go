package harness

import (
	"fmt"
	"time"

	"trust/internal/device"
	"trust/internal/fingerprint"
	"trust/internal/flock"
	"trust/internal/ftdc"
	"trust/internal/geom"
	"trust/internal/pki"
	"trust/internal/placement"
	"trust/internal/sim"
	"trust/internal/touch"
	"trust/internal/webserver"
)

// XChaos sweeps network drop rate against retry budget and reports how
// the continuous-auth session fares: the fraction of interactions the
// server actually acknowledged, how often the device fell back to its
// local degraded mode, and the virtual-time cost of recovering an
// interrupted round. Every trial is seeded independently, so the whole
// grid fans out through the sweep engine and the artifact is
// byte-identical at any worker count.
func XChaos(seed uint64) (Result, error) {
	res, _, err := xChaos(seed, false)
	return res, err
}

// XChaosCapture runs the chaos sweep with per-trial FTDC telemetry
// capture: each trial samples the full server+device metric row after
// every browsing round, on its own virtual clock. The per-trial
// captures share one schema, so concatenating them in cell/trial index
// order yields a single valid capture — and because each trial is
// single-goroutine and independently seeded, the concatenation is
// byte-identical across runs and worker counts.
func XChaosCapture(seed uint64) (Result, []byte, error) {
	return xChaos(seed, true)
}

func xChaos(seed uint64, capture bool) (Result, []byte, error) {
	drops := []float64{0, 0.15, 0.3, 0.45}
	budgets := []int{1, 2, 4, 8}
	const (
		trials = 3
		rounds = 10
	)

	type cell struct {
		drop   float64
		budget int
	}
	var cells []cell
	for _, d := range drops {
		for _, b := range budgets {
			cells = append(cells, cell{d, b})
		}
	}

	outs, err := sim.ParMap(len(cells)*trials, func(idx int) (chaosTrialOut, error) {
		c, trial := cells[idx/trials], idx%trials
		trialSeed := seed + uint64(idx*131+trial)
		return chaosTrial(trialSeed, c.drop, c.budget, rounds, capture)
	})
	if err != nil {
		return Result{}, nil, err
	}

	var rows [][]string
	metrics := map[string]float64{}
	for ci, c := range cells {
		var agg chaosTrialOut
		for t := 0; t < trials; t++ {
			o := outs[ci*trials+t]
			agg.acked += o.acked
			agg.degraded += o.degraded
			agg.retries += o.retries
			agg.recovery += o.recovery
			agg.recovered += o.recovered
			if o.failed {
				agg.failed = true
			}
		}
		total := trials * rounds
		ackedFrac := float64(agg.acked) / float64(total)
		meanRecovery := 0.0
		if agg.recovered > 0 {
			meanRecovery = float64(agg.recovery.Milliseconds()) / float64(agg.recovered)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.0f%%", c.drop*100),
			fmt.Sprintf("%d", c.budget),
			fmt.Sprintf("%.1f%%", ackedFrac*100),
			fmt.Sprintf("%.1f%%", float64(agg.degraded)/float64(total)*100),
			fmt.Sprintf("%.2f", float64(agg.retries)/float64(total)),
			fmt.Sprintf("%.1f ms", meanRecovery),
		})
		metrics[fmt.Sprintf("acked_drop%.0f_budget%d", c.drop*100, c.budget)] = ackedFrac
	}
	text := fmtTable([]string{"drop rate", "retry budget", "server-acked", "degraded rounds", "retries/round", "mean recovery"}, rows)
	var capt []byte
	if capture {
		for _, o := range outs {
			capt = append(capt, o.capture...)
		}
	}
	return Result{
		ID:      "x-chaos",
		Title:   "Lossy-network chaos sweep: session survival vs retry budget (X14)",
		Text:    text,
		Metrics: metrics,
	}, capt, nil
}

// chaosTrialOut is one trial's tallies.
type chaosTrialOut struct {
	acked, degraded int
	retries         int           // deliveries beyond the first, summed
	recovery        time.Duration // backoff spent on recovered rounds
	recovered       int           // rounds that needed >1 delivery yet acked
	failed          bool          // a round died terminally
	capture         []byte        // per-trial FTDC bytes (capture runs only)
}

// chaosRig is one chaos trial's device and server with a session
// already established over a clean link. Both chaos sweeps (X14 and
// X14b) build it the same way and differ only in the transport.
type chaosRig struct {
	srv    *webserver.Server
	dev    *device.Device
	finger *fingerprint.Finger
	now    time.Duration
}

// newChaosRig builds the trial's CA, server and enrolled module, hands
// the server and the fault schedule's generator to link for the
// device's transport, then registers and logs in. Establishment runs
// over the clean link; the sweeps measure steady-state browsing, not
// login-under-fire (XAttacks and the loadgen fault modes cover lossy
// logins).
func newChaosRig(trialSeed uint64, budget int, link func(srv *webserver.Server, faults *sim.RNG) device.Transport) (*chaosRig, error) {
	ca, err := pki.NewCA("trust-root", pki.NewDeterministicRand(trialSeed^0xc4a0))
	if err != nil {
		return nil, err
	}
	srv, err := webserver.New("chaos.example", ca, trialSeed^0x5e7)
	if err != nil {
		return nil, err
	}
	pl := placement.Placement{Sensors: []geom.Rect{geom.RectWH(180, 660, 120, 120)}}
	mod, err := flock.New(flock.DefaultConfig(pl), ca, "chaos-phone", trialSeed+5)
	if err != nil {
		return nil, err
	}
	// Three shared finger seeds across all trials keep the synthesis
	// cost bounded without correlating the fault schedules.
	finger := fingerprint.Synthesize(9000+trialSeed%3, fingerprint.PatternType(trialSeed%3))
	if err := mod.Enroll(fingerprint.NewTemplate(finger)); err != nil {
		return nil, err
	}

	dev := device.New("chaos-phone", mod, link(srv, sim.NewRNG(trialSeed^0xfa01)))
	dev.SetRetryPolicy(device.RetryPolicy{
		MaxAttempts: budget,
		BaseDelay:   50 * time.Millisecond,
		MaxDelay:    800 * time.Millisecond,
		JitterFrac:  0.2,
	}, sim.NewRNG(trialSeed^0xfa02))

	r := &chaosRig{srv: srv, dev: dev, finger: finger}
	if err := r.verify(); err != nil {
		return nil, err
	}
	if err := dev.Register(r.now, "chaos-acct", "recovery-pw"); err != nil {
		return nil, err
	}
	if err := r.verify(); err != nil {
		return nil, err
	}
	if err := dev.Login(r.now, srv.Certificate(), "chaos-acct"); err != nil {
		return nil, err
	}
	return r, nil
}

// verify touches the sensor until a capture matches, advancing the
// rig's virtual time 400 ms per miss.
func (r *chaosRig) verify() error {
	for a := 0; a < 40; a++ {
		ev := touch.Event{At: r.now, Pos: geom.Point{X: 240, Y: 720}, Pressure: 0.7, RadiusMM: 4.2, SpeedMMS: 1}
		if r.dev.Touch(ev, r.finger).Kind == flock.Matched {
			return nil
		}
		r.now += 400 * time.Millisecond
	}
	return fmt.Errorf("harness: chaos device never touch-verified")
}

// chaosTrial runs the continuous-auth rounds over an in-memory link
// with the given drop rate and retry budget.
func chaosTrial(trialSeed uint64, drop float64, budget, rounds int, capture bool) (out chaosTrialOut, err error) {
	var ft *device.FaultyTransport
	r, err := newChaosRig(trialSeed, budget, func(srv *webserver.Server, faults *sim.RNG) device.Transport {
		ft = device.NewFaultyTransport(&device.InMemory{Server: srv}, device.FaultProfile{}, faults)
		return ft
	})
	if err != nil {
		return out, err
	}
	srv, dev := r.srv, r.dev

	// Telemetry capture: one sample of the combined server+device row
	// per browsing round, on the trial's own virtual clock. The schema
	// is identical across trials, which is what lets the sweep
	// concatenate per-trial captures into one artifact.
	var capt *ftdc.Capture
	var vals []int64
	if capture {
		capt = ftdc.NewCapture(ftdc.NewSchema(append(srv.MetricsSchema(), dev.MetricsSchema()...)))
	}
	sample := func(at time.Duration) {
		if capt == nil {
			return
		}
		vals = srv.AppendMetrics(vals[:0])
		vals = dev.AppendMetrics(vals)
		capt.Sample(int64(at), vals)
	}

	ft.Profile = device.FaultProfile{DropRate: drop}
	for i := 0; i < rounds; i++ {
		if err := r.verify(); err != nil {
			return out, err
		}
		callsBefore := ft.Stats.Calls
		after, err := dev.BrowseResilient(r.now, fmt.Sprintf("page-%d", i%4))
		if err != nil {
			out.failed = true
			break
		}
		deliveries := ft.Stats.Calls - callsBefore
		out.retries += deliveries - 1
		switch {
		case dev.Degraded():
			out.degraded++
		default:
			out.acked++
			if deliveries > 1 {
				out.recovered++
				out.recovery += after - r.now
			}
		}
		r.now = after
		sample(r.now)
	}
	if capt != nil {
		out.capture = append([]byte(nil), capt.Bytes()...)
	}
	return out, nil
}

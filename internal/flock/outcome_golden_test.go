package flock

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"trust/internal/fingerprint"
	"trust/internal/geom"
	"trust/internal/pki"
	"trust/internal/sim"
	"trust/internal/touch"
)

// outcomeGoldenPath pins the statistical pipeline's TouchOutcome
// sequences: one line per touch, then the module's final energy total,
// for each module seed. The capture pipeline may be restructured
// freely; these outcomes may not change.
const outcomeGoldenPath = "testdata/outcomes.golden"

// goldenTouches is how many touches each seed's module handles.
const goldenTouches = 600

// goldenEvent draws one touch from a mix covering every pipeline exit:
// clean taps on either sensor, taps anywhere on the panel, contacts too
// light for the panel to register, and on-sensor contacts that fail the
// quality gate on pressure, on speed, or on both.
func goldenEvent(r *sim.RNG, at time.Duration) touch.Event {
	sensors := testPlacement().Sensors
	win := sensors[r.Intn(len(sensors))]
	ev := touch.Event{
		At:             at,
		Kind:           touch.Tap,
		Pos:            geom.Point{X: win.Min.X + r.Float64()*win.W(), Y: win.Min.Y + r.Float64()*win.H()},
		Pressure:       0.45 + 0.45*r.Float64(),
		RadiusMM:       3.5 + 1.5*r.Float64(),
		SpeedMMS:       5 * r.Float64(),
		FingerOffsetMM: geom.Point{X: r.Normal(0, 0.8), Y: r.Normal(0, 0.8)},
		FingerRotation: r.Normal(0, 0.15),
	}
	switch k := r.Intn(10); {
	case k == 5: // anywhere on the panel, mostly off every sensor
		ev.Pos = geom.Point{X: 480 * r.Float64(), Y: 800 * r.Float64()}
	case k == 6: // below the panel's detection threshold
		ev.Pressure = 0.02 + 0.1*r.Float64()
	case k == 7: // light press near the quality gate's pressure floor
		ev.Pressure = 0.18 + 0.05*r.Float64()
	case k == 8: // smeared swipe
		ev.SpeedMMS = 36 + 40*r.Float64()
	case k == 9:
		ev.Pressure = 0.18 + 0.05*r.Float64()
		ev.SpeedMMS = 36 + 40*r.Float64()
	}
	return ev
}

// goldenOutcomes runs one seed's module over goldenTouches touches,
// one in five from an impostor, and renders every outcome.
func goldenOutcomes(t *testing.T, seed uint64) []string {
	t.Helper()
	ca, err := pki.NewCA("trust-root", pki.NewDeterministicRand(1))
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(DefaultConfig(testPlacement()), ca, "golden-device", seed)
	if err != nil {
		t.Fatal(err)
	}
	owner := fingerprint.Synthesize(4242, fingerprint.Loop)
	if err := m.Enroll(fingerprint.NewTemplate(owner)); err != nil {
		t.Fatal(err)
	}
	impostor := fingerprint.Synthesize(666, fingerprint.Whorl)
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

	r := sim.NewRNG(seed ^ 0x90_1d)
	lines := make([]string, 0, goldenTouches+1)
	for i := 0; i < goldenTouches; i++ {
		finger := owner
		if r.Intn(5) == 0 {
			finger = impostor
		}
		out := m.HandleTouch(goldenEvent(r, time.Duration(i)*time.Second), finger)
		reasons := make([]string, len(out.Reasons))
		for j, rr := range out.Reasons {
			reasons[j] = rr.String()
		}
		lines = append(lines, fmt.Sprintf("%d %d %s %s %s %d %s [%s] %d %d %d %d %s",
			seed, i, out.Kind, g(out.Pos.X), g(out.Pos.Y), out.SensorIndex, g(out.Score),
			strings.Join(reasons, ","), out.PanelScan, out.SensorScan, out.MatchTime, out.Total,
			g(float64(out.EnergySpent))))
	}
	lines = append(lines, fmt.Sprintf("%d energy %s", seed, g(float64(m.Energy().Total()))))
	return lines
}

// TestOutcomeGolden replays the statistical capture pipeline for two
// module seeds and checks every TouchOutcome field the pipeline derives
// (kind, detected position, sensor, score, reject reasons, latency
// split, energy) and the final energy total against the checked-in
// sequence.
func TestOutcomeGolden(t *testing.T) {
	var got []string
	for _, seed := range []uint64{7, 1013} {
		got = append(got, goldenOutcomes(t, seed)...)
	}

	// The mix must reach every exit of the pipeline, or the golden
	// would pin less than it claims.
	seen := map[string]int{}
	for _, l := range got {
		f := strings.Fields(l)
		if f[1] == "energy" {
			continue
		}
		seen[f[2]]++
		for _, rr := range []string{"low-pressure", "moved-too-fast"} {
			if strings.Contains(f[7], rr) {
				seen[rr]++
			}
		}
	}
	for _, k := range []string{"not-sensed", "outside-sensor", "low-quality", "matched", "mismatched", "low-pressure", "moved-too-fast"} {
		if seen[k] == 0 {
			t.Errorf("golden mix never produces %s (seen %v)", k, seen)
		}
	}

	f, err := os.Open(outcomeGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("outcome line %d changed:\n got %s\nwant %s", i+1, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("golden has %d lines, pipeline produced %d", len(want), len(got))
	}
}

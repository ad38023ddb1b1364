package main

import (
	"encoding/json"
	"errors"
	"os"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	sorted := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // exactly ten beyond
		{999, 0.99, 0, false},   // nine beyond
		{20, 0.50, 10, true},
		{19, 0.50, 0, false},
		{0, 0.50, 0, false},
	} {
		got, ok := percentile(sorted(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{
		{10, 30}, {20, 50}, // overlap: together cover 10..50
		{15, 25},   // inside the first two
		{90, 120},  // sticks out past the parent's end
		{150, 160}, // wholly outside
		{60, 60},   // empty
	}
	if got := selfTime(parent, children); got != 50 {
		t.Errorf("selfTime = %d, want 50 (100 minus 40 covered by 10..50 and 10 by 90..100)", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
}

// fakeClock advances only when told: sleeping jumps to the wake time
// and an op moves it by its service time.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }

func (c *fakeClock) sleepUntil(t time.Duration) {
	if t > c.t {
		c.t = t
	}
}

func TestOpenLoopStallChargesLaterOpsFromDueTime(t *testing.T) {
	ms := time.Millisecond
	clk := &fakeClock{}
	dues := []time.Duration{0, 1 * ms, 2 * ms, 3 * ms, 4 * ms, 5 * ms}
	service := []time.Duration{ms / 2, 7 * ms / 2, ms / 2, ms / 2, ms / 2, ms / 2}
	fails := []bool{false, false, false, true, false, false}
	i := 0
	p := runSchedule(clk, dues, time.Hour, func() error {
		clk.t += service[i]
		i++
		if fails[i-1] {
			return errors.New("refused")
		}
		return nil
	})
	// Op 1 stalls 3.5 ms; ops 2..5 queue behind it on the same device and
	// their latency counts from when each was due, not when it started.
	wantLate := []time.Duration{0, 0, 5 * ms / 2, 2 * ms, 3 * ms / 2, ms}
	wantLat := []time.Duration{ms / 2, 7 * ms / 2, 3 * ms, missed, 2 * ms, 3 * ms / 2}
	for k, s := range p.samples {
		if s.due != dues[k] || s.late != wantLate[k] || s.lat != wantLat[k] {
			t.Errorf("op %d: due %v late %v lat %v; want due %v late %v lat %v", k, s.due, s.late, s.lat, dues[k], wantLate[k], wantLat[k])
		}
	}
	if p.ops != 6 || p.failed != 1 {
		t.Errorf("ops %d failed %d, want 6 and 1", p.ops, p.failed)
	}
}

func TestOpenLoopCutoffFailsUnstartedOps(t *testing.T) {
	clk := &fakeClock{}
	ran := 0
	p := runSchedule(clk, []time.Duration{0, time.Second, 2 * time.Second}, 1500*time.Millisecond, func() error {
		ran++
		clk.t += 10 * time.Second
		return nil
	})
	if ran != 1 || p.ops != 3 || p.failed != 2 {
		t.Errorf("ran %d ops, counted %d, failed %d; want 1, 3, 2", ran, p.ops, p.failed)
	}
}

// TestTracedStreamKeepsDeviceBehaviour builds the same one-device fleet
// with and without the timing decorators: the decorated transport must
// still bind the stream eagerly at login and carry batches in one frame.
func TestTracedStreamKeepsDeviceBehaviour(t *testing.T) {
	w, err := findWorkload("browse")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := newFleet(w, 7, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(1)
	traced, err := newFleet(w, 7, 1, nil, tr)
	if err != nil {
		plain.close()
		t.Fatal(err)
	}
	p, q := plain.clients[0].stream, traced.clients[0].stream
	if p.Streaming() != q.Streaming() || !q.Streaming() {
		t.Errorf("Streaming() after login: plain %v, traced %v", p.Streaming(), q.Streaming())
	}
	if p.Stats().Dials != q.Stats().Dials {
		t.Errorf("Stats().Dials after login: plain %d, traced %d", p.Stats().Dials, q.Stats().Dials)
	}

	tr.on.Store(true)
	c := traced.clients[0]
	if err := traced.do(c); err != nil {
		t.Fatal(err)
	}
	if err := c.dev.BrowseBatch(c.now, []string{"home", "view-statement"}); err != nil {
		t.Fatal(err)
	}
	c.okCalls += 2
	tr.on.Store(false)
	names := map[string]int{}
	parents := map[int64]string{}
	for _, s := range tr.allSpans() {
		names[s.name]++
		parents[s.id] = s.name
	}
	for name, want := range map[string]int{
		"op.page":                     1,
		"transport.SubmitPageRequest": 1,
		"transport.SubmitPageBatch":   1,
		"webserver.stream.page":       2,
	} {
		if names[name] != want {
			t.Errorf("%d %s spans, want %d (all: %v)", names[name], name, want, names)
		}
	}
	for _, s := range tr.allSpans() {
		if s.name == "webserver.stream.page" && parents[s.parent] == "" {
			t.Errorf("server span %d has no transport parent", s.id)
		}
	}
	if err := plain.check(); err != nil {
		t.Error(err)
	}
	if err := traced.check(); err != nil {
		t.Error(err)
	}
}

// TestBenchmarkJSONMatchesProgram keeps the metric and workload lists in
// BENCHMARK.json and the program's output in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program reports %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer())
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, w.Name, workloads[i].name)
		}
	}
}

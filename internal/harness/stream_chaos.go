package harness

import (
	"fmt"
	"io"
	"net"
	"time"

	"trust/internal/device"
	"trust/internal/sim"
	"trust/internal/webserver"
)

// XStreamChaos is the streamed-transport counterpart of XChaos: it
// sweeps mid-frame cut rate against retry budget over a live device
// stream (hello/welcome, chained nonces, reconnect-and-resync) and
// reports interaction survival plus the cost of each recovery. Torn
// writes ride along at a fixed rate in every lossy cell — they are
// loss-free by construction, so they exercise frame reassembly without
// moving the metrics. The sweep's headline invariant is the last
// column: however hard the link is cut, a cleanly-healed link must
// always find the session intact — zero sessions lost, every
// enrollment still serving.
func XStreamChaos(seed uint64) (Result, error) {
	cuts := []float64{0, 0.15, 0.3, 0.5}
	budgets := []int{2, 4, 8}
	const (
		trials = 3
		rounds = 10
	)

	type cell struct {
		cut    float64
		budget int
	}
	var cells []cell
	for _, c := range cuts {
		for _, b := range budgets {
			cells = append(cells, cell{c, b})
		}
	}

	outs, err := sim.ParMap(len(cells)*trials, func(idx int) (streamChaosOut, error) {
		c, trial := cells[idx/trials], idx%trials
		trialSeed := seed + uint64(idx*151+trial)
		return streamChaosTrial(trialSeed, c.cut, c.budget, rounds)
	})
	if err != nil {
		return Result{}, err
	}

	var rows [][]string
	metrics := map[string]float64{}
	for ci, c := range cells {
		var agg streamChaosOut
		for t := 0; t < trials; t++ {
			o := outs[ci*trials+t]
			agg.acked += o.acked
			agg.degraded += o.degraded
			agg.redials += o.redials
			agg.cuts += o.cuts
			agg.tears += o.tears
			agg.recovery += o.recovery
			agg.recovered += o.recovered
			agg.lost += o.lost
		}
		total := trials * rounds
		ackedFrac := float64(agg.acked) / float64(total)
		meanRecovery := 0.0
		if agg.recovered > 0 {
			meanRecovery = float64(agg.recovery.Milliseconds()) / float64(agg.recovered)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.0f%%", c.cut*100),
			fmt.Sprintf("%d", c.budget),
			fmt.Sprintf("%.1f%%", ackedFrac*100),
			fmt.Sprintf("%.1f%%", float64(agg.degraded)/float64(total)*100),
			fmt.Sprintf("%.2f", float64(agg.redials)/float64(total)),
			fmt.Sprintf("%d", agg.cuts),
			fmt.Sprintf("%d", agg.tears),
			fmt.Sprintf("%.1f ms", meanRecovery),
			fmt.Sprintf("%d", agg.lost),
		})
		metrics[fmt.Sprintf("acked_cut%.0f_budget%d", c.cut*100, c.budget)] = ackedFrac
		metrics[fmt.Sprintf("lost_cut%.0f_budget%d", c.cut*100, c.budget)] = float64(agg.lost)
	}
	text := fmtTable(
		[]string{"cut rate", "retry budget", "server-acked", "degraded rounds", "redials/round", "cuts", "tears", "mean recovery", "sessions lost"},
		rows,
	)
	return Result{
		ID:      "x-stream-chaos",
		Title:   "Streamed-transport chaos sweep: mid-frame cuts vs retry budget (X14b)",
		Text:    text,
		Metrics: metrics,
	}, nil
}

// streamChaosOut is one trial's tallies.
type streamChaosOut struct {
	acked, degraded int
	redials         int           // stream redials across the lossy rounds
	cuts, tears     int           // faults actually injected
	recovery        time.Duration // backoff spent on recovered rounds
	recovered       int           // rounds that needed a redial yet acked
	lost            int           // 1 if the session did not survive to a clean final browse
}

// streamChaosTrial runs one device over a streamed transport: clean
// enrollment and login, lossy continuous-auth rounds with mid-frame
// cuts and torn writes, then a healed-link browse that must find the
// session alive.
func streamChaosTrial(trialSeed uint64, cut float64, budget, rounds int) (out streamChaosOut, err error) {
	var (
		fd *device.FaultyDialer
		st *device.Stream
	)
	// The hello goes out whole even in lossy rounds (HandshakeGrace), so
	// the sweep measures an established stream degrading.
	r, err := newChaosRig(trialSeed, budget, func(srv *webserver.Server, faults *sim.RNG) device.Transport {
		dial := func() (io.ReadWriteCloser, error) {
			c1, c2 := net.Pipe()
			go func() { _ = srv.ServeStream(c2) }()
			return c1, nil
		}
		fd = device.NewFaultyDialer(dial, device.StreamFaultProfile{}, faults)
		st = &device.Stream{Dial: fd.Dial, Fallback: &device.InMemory{Server: srv}}
		return st
	})
	if err != nil {
		return out, err
	}
	dev := r.dev
	if !st.Streaming() {
		return out, fmt.Errorf("harness: stream chaos device not streaming after login")
	}

	fd.Profile = device.StreamFaultProfile{CutRate: cut, TearRate: 0.25 * minf(1, cut*4), HandshakeGrace: 1}
	for i := 0; i < rounds; i++ {
		if err := r.verify(); err != nil {
			return out, err
		}
		redialsBefore := st.Stats().Redials
		after, err := dev.BrowseResilient(r.now, fmt.Sprintf("page-%d", i%4))
		if err != nil {
			break
		}
		redials := st.Stats().Redials - redialsBefore
		out.redials += redials
		switch {
		case dev.Degraded():
			out.degraded++
		default:
			out.acked++
			if redials > 0 {
				out.recovered++
				out.recovery += after - r.now
			}
		}
		r.now = after
	}
	out.cuts = fd.Stats.Cuts
	out.tears = fd.Stats.Tears

	// Heal the link. Whatever the cuts did, the enrollment and session
	// must have survived server-side: one resilient browse over the
	// clean stream has to come back acked.
	fd.Profile = device.StreamFaultProfile{}
	if err := r.verify(); err != nil {
		return out, err
	}
	if _, err := dev.BrowseResilient(r.now, "home"); err != nil || dev.Degraded() {
		out.lost = 1
	}
	_ = st.Close()
	return out, nil
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

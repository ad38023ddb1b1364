package harness

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"trust/internal/ftdc"
	"trust/internal/sim"
)

// TestSweptExperimentsWorkerCountInvariant is the determinism contract
// of the sweep engine (docs/sweep-engine.md) applied end to end: every
// experiment must produce a byte-identical artifact and identical
// metrics whether it runs on one worker or many. It walks the whole
// Experiments table, so an experiment that starts fanning its trials
// out through sim.ParMap is checked without being listed here; the
// ones that never fan out pass trivially and cheaply.
func TestSweptExperimentsWorkerCountInvariant(t *testing.T) {
	// Force a genuinely concurrent pool even on single-core CI
	// machines, where GOMAXPROCS would collapse the parallel run back
	// to one worker and the test would assert nothing.
	workers := max(runtime.GOMAXPROCS(0), 8)
	for _, e := range Experiments {
		t.Run(generatorName(e), func(t *testing.T) {
			prev := sim.SetMaxWorkers(1)
			defer sim.SetMaxWorkers(prev)
			serial, err := e.Run(Seed)
			if err != nil {
				t.Fatalf("serial run: %v", err)
			}
			sim.SetMaxWorkers(workers)
			parallel, err := e.Run(Seed)
			if err != nil {
				t.Fatalf("parallel run (%d workers): %v", workers, err)
			}
			if serial.Text != parallel.Text {
				t.Errorf("artifact text differs between 1 and %d workers:\n--- serial ---\n%s\n--- parallel ---\n%s",
					workers, serial.Text, parallel.Text)
			}
			if len(serial.Metrics) != len(parallel.Metrics) {
				t.Fatalf("metric count differs: %d vs %d", len(serial.Metrics), len(parallel.Metrics))
			}
			for k, v := range serial.Metrics {
				pv, ok := parallel.Metrics[k]
				if !ok {
					t.Errorf("metric %q missing from parallel run", k)
					continue
				}
				if v != pv {
					t.Errorf("metric %q: serial %v, parallel %v", k, v, pv)
				}
			}
		})
	}
}

// generatorName names an experiment by its generator function
// ("XWindow", "Fig6"), falling back to its Bench name for the wrappers
// around generators that take no seed.
func generatorName(e Experiment) string {
	name := runtime.FuncForPC(reflect.ValueOf(e.Run).Pointer()).Name()
	name = name[strings.LastIndexByte(name, '.')+1:]
	if strings.HasPrefix(name, "func") {
		return e.Bench
	}
	return name
}

// TestXChaosCaptureByteIdentical is the determinism contract extended
// to the telemetry capture: the concatenated FTDC artifact must be
// byte-identical across repeated runs and across worker counts, and
// must parse back into one well-formed metric table.
func TestXChaosCaptureByteIdentical(t *testing.T) {
	workers := max(runtime.GOMAXPROCS(0), 8)
	prev := sim.SetMaxWorkers(1)
	defer sim.SetMaxWorkers(prev)

	_, serial, err := XChaosCapture(Seed)
	if err != nil {
		t.Fatal(err)
	}
	_, again, err := XChaosCapture(Seed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial, again) {
		t.Fatal("capture differs between two serial runs of the same seed")
	}

	sim.SetMaxWorkers(workers)
	_, parallel, err := XChaosCapture(Seed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("capture differs between 1 and %d workers (%d vs %d bytes)", workers, len(serial), len(parallel))
	}

	data, err := ftdc.Read(serial)
	if err != nil {
		t.Fatalf("capture does not parse: %v", err)
	}
	// 16 cells x 3 trials x 10 rounds, one sample per round — minus
	// rounds lost to terminally failed trials, so a lower bound holds.
	if data.Rows() < 16*3 {
		t.Fatalf("capture holds %d rows, expected at least one surviving round per trial", data.Rows())
	}
	if data.Names[0] != "accepted" {
		t.Fatalf("schema starts with %q, want the server metric block", data.Names[0])
	}
	if last := data.Names[len(data.Names)-1]; last != "dev_stream_downgrades" {
		t.Fatalf("schema ends with %q, want the device metric block", last)
	}
}

// Command perfbench is the TRUST service benchmark. It builds the real
// webserver, simulated devices and their FLock modules in one process,
// drives one workload through their public APIs, checks the outputs and
// prints one JSON result as its last line. Server and devices share the
// process, so every CPU figure covers both.
//
// Build and run it from the repository root:
//
//	bash perfbench/run.sh --workload browse --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// from a separate run with the timing decorators on. It exits non-zero
// when a correctness check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: browse, reconnect, enroll-mixed or touch-browse")
	seed := flag.Uint64("seed", 1, "seed the fleet, keys and fingerprints are made from")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		fail(err)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("need --seconds >= 1 and --trace 0 or 1"))
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, devices: runtime.NumCPU()}
	hostLine(cfg)

	run, defs := runUntraced, endToEnd
	if *trace == 1 {
		run, defs = runTraced, perLayer()
	}
	res, err := run(w, cfg)
	if res.Metrics == nil {
		fail(err)
	}
	fmt.Printf("workload %s: %d ops attempted, %d failed\n", w.name, res.Attempted, res.Failed)
	for _, d := range defs {
		fmt.Printf("  %-44s %16.3f %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	for _, l := range res.extra {
		fmt.Printf("  %-44s %16.3f %s (not in the result line)\n", l.name, l.value, l.unit)
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fail(jerr)
	}
	fmt.Println(string(line))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: correctness check failed:", err)
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// hostLine prints what the figures were measured on.
func hostLine(cfg runConfig) {
	host := map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"seed":       cfg.seed,
		"devices":    cfg.devices,
	}
	b, _ := json.Marshal(host) // a map of strings and numbers always encodes
	fmt.Println("host", string(b))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the source revision the binary was built from, when the
// build could see one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

package harness

// Experiment is one regenerated artifact: ID is its Result.ID and
// artifact file name (artifacts/<ID>.txt), Bench the name its timing is
// reported under (BenchmarkArtifacts/<Bench> and the BENCH_harness.json
// key), and Run its generator.
type Experiment struct {
	ID    string
	Bench string
	Run   func(seed uint64) (Result, error)
}

// Experiments lists every artifact in paper order: Tables I–II, Figs
// 1–10, then the extension experiments X1–X14b (DESIGN.md section 4).
// AllResults, cmd/benchtab and BenchmarkArtifacts all read this table.
var Experiments = []Experiment{
	{"table1", "Table1", Table1},
	{"table2", "Table2", func(uint64) (Result, error) { return Table2() }},
	{"fig1", "Fig1", Fig1},
	{"fig2", "Fig2", Fig2},
	{"fig3", "Fig3", func(uint64) (Result, error) { return Fig3() }},
	{"fig4", "Fig4", Fig4},
	{"fig5", "Fig5", Fig5},
	{"fig6", "Fig6", Fig6},
	{"fig7", "Fig7", Fig7},
	{"fig8", "Fig8", Fig8},
	{"fig9", "Fig9", Fig9},
	{"fig10", "Fig10", Fig10},
	{"x-placement", "Placement", XPlacement},
	{"x-window", "WindowPolicy", XWindow},
	{"x-attacks", "Attacks", XAttacks},
	{"x-energy", "Energy", XEnergy},
	{"x-frameaudit", "FrameAudit", XFrameAudit},
	{"x-transfer", "Transfer", XTransfer},
	{"x-fuzzyvault", "FuzzyVault", XFuzzyVault},
	{"x-modalities", "Modalities", XModalities},
	{"x-hijack", "Hijack", XHijack},
	{"x-imagepipeline", "ImagePipeline", XImagePipeline},
	{"x-adaptation", "Adaptation", XAdaptation},
	{"x-noise", "Noise", XNoise},
	{"x-personalization", "Personalization", XPersonalization},
	{"x-chaos", "Chaos", XChaos},
	{"x-stream-chaos", "StreamChaos", XStreamChaos},
}

// AllResults regenerates every artifact, in paper order.
func AllResults(seed uint64) ([]Result, error) {
	var out []Result
	for _, e := range Experiments {
		r, err := e.Run(seed)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

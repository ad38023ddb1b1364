package harness

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestTable1Shape(t *testing.T) {
	r, err := Table1(Seed)
	if err != nil {
		t.Fatal(err)
	}
	// Paper shape: integrated login instant, swipe seconds, password
	// slowest; only integrated has post-login coverage.
	if r.Metrics["integrated_login_seconds"] >= r.Metrics["swipe_login_seconds"] {
		t.Fatal("integrated login not faster than swipe")
	}
	if r.Metrics["swipe_login_seconds"] >= r.Metrics["password_login_seconds"] {
		t.Fatal("swipe not faster than password")
	}
	if r.Metrics["integrated_coverage"] <= 0.2 {
		t.Fatalf("integrated coverage %.3f too low", r.Metrics["integrated_coverage"])
	}
	if r.Metrics["password_guessing"] != 0.91 {
		t.Fatalf("password guessing %.3f, want 0.91", r.Metrics["password_guessing"])
	}
}

func TestTable2Shape(t *testing.T) {
	r, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range r.Metrics {
		if !strings.HasSuffix(k, "_ratio") {
			continue
		}
		if v > 2.2 || v < 1/2.2 {
			t.Errorf("%s = %.2f outside the 2.2x band", k, v)
		}
	}
	if r.Metrics["flock_response_ms"] > 5 {
		t.Fatalf("flock response %.2f ms too slow", r.Metrics["flock_response_ms"])
	}
}

func TestFig1Shape(t *testing.T) {
	r, err := Fig1(Seed)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["scan_ms"] != 4 {
		t.Fatalf("scan = %.2f ms, want 4", r.Metrics["scan_ms"])
	}
	if r.Metrics["mean_err_px"] > 25 {
		t.Fatalf("mean localization error %.1f px", r.Metrics["mean_err_px"])
	}
	if r.Metrics["missed_taps"] > 2 {
		t.Fatalf("%v missed taps", r.Metrics["missed_taps"])
	}
}

func TestFig2Shape(t *testing.T) {
	r, err := Fig2(Seed)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["accuracy"] < 0.9 {
		t.Fatalf("imaging accuracy %.3f", r.Metrics["accuracy"])
	}
	if rf := r.Metrics["ridge_fraction"]; rf < 0.3 || rf > 0.7 {
		t.Fatalf("ridge fraction %.3f", rf)
	}
}

func TestFig3Shape(t *testing.T) {
	r, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["optical_over_tft_response"] <= 1 {
		t.Fatal("optical not slower than TFT")
	}
	if r.Metrics["optical_over_tft_thickness"] <= 5 {
		t.Fatal("optical package not much thicker than TFT")
	}
}

func TestFig4Shape(t *testing.T) {
	r, err := Fig4(Seed)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["speedup_touch_window"] < 5 {
		t.Fatalf("design speedup %.1fx < 5x", r.Metrics["speedup_touch_window"])
	}
}

func TestFig5Shape(t *testing.T) {
	r, err := Fig5(Seed)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["total_ms"] > 120 {
		t.Fatalf("touch->verdict %.1f ms exceeds tap dwell", r.Metrics["total_ms"])
	}
	if r.Metrics["scan_ms"] <= 0 {
		t.Fatal("no sensor scan latency")
	}
}

func TestFig6Shape(t *testing.T) {
	r, err := Fig6(Seed)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["capture_rate"] < 0.2 {
		t.Fatalf("capture rate %.3f", r.Metrics["capture_rate"])
	}
	if r.Metrics["owner_frr"] > 0.25 {
		t.Fatalf("owner FRR %.3f", r.Metrics["owner_frr"])
	}
	if r.Metrics["locked"] != 0 {
		t.Fatal("owner session locked the device")
	}
	if r.Metrics["outside_frac"] <= 0 {
		t.Fatal("no outside-sensor touches: placement covering everything is implausible")
	}
}

func TestFig7Shape(t *testing.T) {
	r, err := Fig7(Seed)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range r.Metrics {
		if v < 0.25 || v > 0.95 {
			t.Errorf("%s = %.3f outside distinct-but-overlapping band", k, v)
		}
	}
	if !strings.Contains(r.Text, "user1-right-thumb") {
		t.Fatal("heatmaps missing")
	}
}

func TestFig8Shape(t *testing.T) {
	r, err := Fig8(Seed)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["bindings_ok"] != r.Metrics["bindings_total"] || r.Metrics["bindings_total"] != 9 {
		t.Fatalf("bindings %v/%v, want 9/9", r.Metrics["bindings_ok"], r.Metrics["bindings_total"])
	}
}

func TestFig9Shape(t *testing.T) {
	r, err := Fig9(Seed)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["tampered_rejects"] != r.Metrics["tampered_total"] {
		t.Fatalf("tamper matrix: %v/%v rejected", r.Metrics["tampered_rejects"], r.Metrics["tampered_total"])
	}
	if !strings.Contains(r.Text, "RegistrationSubmit") {
		t.Fatal("transcript missing submission step")
	}
}

func TestFig10Shape(t *testing.T) {
	r, err := Fig10(Seed)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["replay_rejected"] != 1 {
		t.Fatal("replay not rejected")
	}
	if r.Metrics["audit_flagged"] != 0 {
		t.Fatalf("honest Fig10 session flagged %v entries", r.Metrics["audit_flagged"])
	}
}

func TestXPlacementShape(t *testing.T) {
	r, err := XPlacement(Seed)
	if err != nil {
		t.Fatal(err)
	}
	// Bigger sensors cover more at the same count.
	if r.Metrics["coverage_size96_k8"] <= r.Metrics["coverage_size48_k8"] {
		t.Fatal("coverage not increasing with sensor size")
	}
}

func TestXWindowShape(t *testing.T) {
	r, err := XWindow(Seed)
	if err != nil {
		t.Fatal(err)
	}
	// Default policy must detect every theft with zero owner locks.
	if r.Metrics["p1_detected"] < 9 {
		t.Fatalf("default policy detected only %v/10 thefts", r.Metrics["p1_detected"])
	}
	if r.Metrics["p1_owner_locks"] > 1 {
		t.Fatalf("default policy locked the owner %v times", r.Metrics["p1_owner_locks"])
	}
	if r.Metrics["p1_mean_detection"] > 25 {
		t.Fatalf("default policy mean detection %v touches", r.Metrics["p1_mean_detection"])
	}
}

func TestXAttacksShape(t *testing.T) {
	r, err := XAttacks(Seed)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["defended"] != r.Metrics["total"] {
		t.Fatalf("attacks defended %v/%v", r.Metrics["defended"], r.Metrics["total"])
	}
}

func TestXEnergyShape(t *testing.T) {
	r, err := XEnergy(Seed)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["ratio"] < 20 {
		t.Fatalf("always-on only %.1fx opportunistic", r.Metrics["ratio"])
	}
}

func TestXFrameAuditShape(t *testing.T) {
	r, err := XFrameAudit(Seed)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["views_h6400"] <= r.Metrics["views_h800"] {
		t.Fatal("view set not growing with page height")
	}
	if r.Metrics["views_h6400"] > 300 {
		t.Fatalf("view set exploded: %v", r.Metrics["views_h6400"])
	}
}

func TestXTransferShape(t *testing.T) {
	r, err := XTransfer(Seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"transfer_ok", "thief_rejected", "reset_ok"} {
		if r.Metrics[k] != 1 {
			t.Errorf("%s = %v, want 1", k, r.Metrics[k])
		}
	}
}

func TestXFuzzyVaultShape(t *testing.T) {
	r, err := XFuzzyVault(Seed)
	if err != nil {
		t.Fatal(err)
	}
	// The Sec V argument: the vault works on full aligned prints but
	// collapses on realistic captures, where the TRUST matcher thrives.
	if r.Metrics["vault_full"] < 0.8 {
		t.Fatalf("vault full-print accept %.2f", r.Metrics["vault_full"])
	}
	if r.Metrics["vault_unaligned"] > 0.05 {
		t.Fatalf("vault unaligned accept %.2f should be ~0", r.Metrics["vault_unaligned"])
	}
	if r.Metrics["matcher_partial"] < 0.8 {
		t.Fatalf("matcher partial accept %.2f", r.Metrics["matcher_partial"])
	}
	if r.Metrics["matcher_partial"] <= r.Metrics["vault_unaligned"] {
		t.Fatal("matcher not better than vault on realistic captures")
	}
	if r.Metrics["matcher_far"] > 0.05 {
		t.Fatalf("matcher FAR %.2f", r.Metrics["matcher_far"])
	}
	if r.Metrics["vault_partial"] >= r.Metrics["vault_full"] {
		t.Fatal("partial touches should hurt the vault")
	}
}

func TestXModalitiesShape(t *testing.T) {
	r, err := XModalities(Seed)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["fingerprint_eer"] >= r.Metrics["keystroke_eer"] {
		t.Fatalf("fingerprint EER %.3f not below keystroke EER %.3f",
			r.Metrics["fingerprint_eer"], r.Metrics["keystroke_eer"])
	}
	if r.Metrics["fingerprint_latency_s"] >= r.Metrics["keystroke_latency_s"] {
		t.Fatal("fingerprint decision not faster than a keystroke window")
	}
	if r.Metrics["keystroke_eer"] < 0.02 || r.Metrics["keystroke_eer"] > 0.30 {
		t.Fatalf("keystroke EER %.3f outside literature band", r.Metrics["keystroke_eer"])
	}
	if r.Metrics["fingerprint_eer"] >= r.Metrics["gesture_eer"] {
		t.Fatalf("fingerprint EER %.3f not below gesture EER %.3f",
			r.Metrics["fingerprint_eer"], r.Metrics["gesture_eer"])
	}
	if r.Metrics["fingerprint_latency_s"] >= r.Metrics["gesture_latency_s"] {
		t.Fatal("fingerprint decision not faster than a gesture window")
	}
}

func TestXHijackShape(t *testing.T) {
	r, err := XHijack(Seed)
	if err != nil {
		t.Fatal(err)
	}
	// TRUST must bound the hijack window to roughly the freshness
	// window (~30 s), far below the cookie session's minutes.
	if r.Metrics["trust_window_s"] >= r.Metrics["cookie_window_s"]/5 {
		t.Fatalf("TRUST window %.0fs not well below cookie window %.0fs",
			r.Metrics["trust_window_s"], r.Metrics["cookie_window_s"])
	}
	if r.Metrics["trust_window_s"] > 60 {
		t.Fatalf("TRUST passive window %.0fs exceeds a minute", r.Metrics["trust_window_s"])
	}
	if r.Metrics["impostor_window_s"] > 60 {
		t.Fatalf("TRUST impostor window %.0fs exceeds a minute", r.Metrics["impostor_window_s"])
	}
}

func TestXImagePipelineShape(t *testing.T) {
	r, err := XImagePipeline(Seed)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["img_genuine"] < 0.65 {
		t.Fatalf("image pipeline genuine accept %.2f", r.Metrics["img_genuine"])
	}
	if r.Metrics["img_impostor"] > 0.05 {
		t.Fatalf("image pipeline impostor accept %.2f", r.Metrics["img_impostor"])
	}
	if r.Metrics["stat_genuine"] < 0.8 {
		t.Fatalf("statistical genuine accept %.2f", r.Metrics["stat_genuine"])
	}
	// The statistical model brackets the zero-FAR CV pipeline from
	// above; they must stay within ~1/3 of each other on genuine
	// accepts and agree exactly on impostor rejection.
	if diff := r.Metrics["stat_genuine"] - r.Metrics["img_genuine"]; diff > 0.35 || diff < -0.1 {
		t.Fatalf("pipelines disagree: image %.2f vs statistical %.2f",
			r.Metrics["img_genuine"], r.Metrics["stat_genuine"])
	}
	if r.Metrics["stat_impostor"] > 0.05 {
		t.Fatalf("statistical impostor accept %.2f", r.Metrics["stat_impostor"])
	}
	if r.Metrics["truth_recall"] < 0.85 {
		t.Fatalf("ground-truth recall %.2f", r.Metrics["truth_recall"])
	}
}

func TestXAdaptationShape(t *testing.T) {
	r, err := XAdaptation(Seed)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["last_static"] >= r.Metrics["first_static"] {
		t.Fatal("drift did not degrade the static template")
	}
	if r.Metrics["last_adaptive"] <= r.Metrics["last_static"]+0.15 {
		t.Fatalf("adaptation gain too small: adaptive %.2f vs static %.2f",
			r.Metrics["last_adaptive"], r.Metrics["last_static"])
	}
	if r.Metrics["impostor_accepts"] > 2 {
		t.Fatalf("adapted templates accepted %v impostor probes", r.Metrics["impostor_accepts"])
	}
}

func TestXNoiseShape(t *testing.T) {
	r, err := XNoise(Seed)
	if err != nil {
		t.Fatal(err)
	}
	// The design point must sit on the plateau; heavy noise must
	// degrade both accuracy and genuine accepts, monotonically-ish.
	if r.Metrics["acc_012"] < 0.95 {
		t.Fatalf("design-point imaging accuracy %.3f", r.Metrics["acc_012"])
	}
	if r.Metrics["genuine_012"] < 0.6 {
		t.Fatalf("design-point genuine accept %.2f", r.Metrics["genuine_012"])
	}
	if r.Metrics["acc_060"] >= r.Metrics["acc_012"] {
		t.Fatal("5x noise did not hurt imaging accuracy")
	}
	if r.Metrics["genuine_060"] >= r.Metrics["genuine_012"] {
		t.Fatal("5x noise did not hurt genuine accepts")
	}
	for _, k := range []string{"impostor_005", "impostor_012", "impostor_025", "impostor_040", "impostor_060"} {
		if r.Metrics[k] > 0.1 {
			t.Fatalf("%s = %.2f", k, r.Metrics[k])
		}
	}
}

func TestXPersonalizationShape(t *testing.T) {
	r, err := XPersonalization(Seed)
	if err != nil {
		t.Fatal(err)
	}
	// Fig 7's overlap argument: the shared factory placement retains
	// most of the personalized coverage and beats a uniform grid.
	if r.Metrics["shared"] < 0.7*r.Metrics["personal"] {
		t.Fatalf("shared %.2f lost too much vs personalized %.2f",
			r.Metrics["shared"], r.Metrics["personal"])
	}
	if r.Metrics["shared"] <= r.Metrics["uniform"] {
		t.Fatalf("shared %.2f not above uniform %.2f",
			r.Metrics["shared"], r.Metrics["uniform"])
	}
}

func TestXChaosRetriesRescueLossySessions(t *testing.T) {
	r, err := XChaos(Seed)
	if err != nil {
		t.Fatal(err)
	}
	// Clean link: every interaction acknowledged even without retries.
	if got := r.Metrics["acked_drop0_budget1"]; got != 1 {
		t.Fatalf("clean link acked %.2f, want 1.0", got)
	}
	// The ISSUE's acceptance pair: at 30%% loss a sane retry budget
	// completes every interaction, while fail-fast demonstrably loses
	// sessions to degraded mode.
	withRetries := r.Metrics["acked_drop30_budget8"]
	withoutRetries := r.Metrics["acked_drop30_budget1"]
	if withRetries != 1 {
		t.Fatalf("30%% loss with retry budget 8: acked %.2f, want 1.0", withRetries)
	}
	if withoutRetries >= withRetries {
		t.Fatalf("fail-fast acked %.2f not below retried %.2f at 30%% loss",
			withoutRetries, withRetries)
	}
}

func TestXStreamChaosCutsNeverLoseSessions(t *testing.T) {
	r, err := XStreamChaos(Seed)
	if err != nil {
		t.Fatal(err)
	}
	// Clean stream: every interaction acknowledged.
	if got := r.Metrics["acked_cut0_budget2"]; got != 1 {
		t.Fatalf("clean stream acked %.2f, want 1.0", got)
	}
	// A sane retry budget rides out heavy mid-frame cutting.
	if got := r.Metrics["acked_cut30_budget8"]; got != 1 {
		t.Fatalf("30%% cut rate with retry budget 8: acked %.2f, want 1.0", got)
	}
	// The acceptance invariant: no cut rate in the sweep loses a
	// session or an enrollment — once the link heals, the server still
	// recognizes every device.
	for k, v := range r.Metrics {
		if strings.HasPrefix(k, "lost_") && v != 0 {
			t.Errorf("%s = %v, want 0 (streamed mode must never lose enrollments)", k, v)
		}
	}
}

func TestAllResultsComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("full regeneration is slow")
	}
	results, err := AllResults(Seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 27 {
		t.Fatalf("%d artifacts, want 27 (2 tables + 10 figures + 15 extensions)", len(results))
	}
	seen := map[string]bool{}
	for i, r := range results {
		if r.ID == "" || r.Title == "" || r.Text == "" {
			t.Errorf("artifact %q incomplete", r.ID)
		}
		if r.ID != Experiments[i].ID {
			t.Errorf("Experiments[%d] is %q but its generator returned %q", i, Experiments[i].ID, r.ID)
		}
		if seen[r.ID] {
			t.Errorf("duplicate artifact id %q", r.ID)
		}
		seen[r.ID] = true
	}
}

// TestExperimentsMatchArtifacts pins the experiment table to the
// committed artifacts: every entry has an artifacts/<ID>.txt, and no
// artifact file lacks an entry.
func TestExperimentsMatchArtifacts(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "artifacts", "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	committed := map[string]bool{}
	for _, f := range files {
		committed[strings.TrimSuffix(filepath.Base(f), ".txt")] = true
	}
	benches := map[string]bool{}
	for _, e := range Experiments {
		if !committed[e.ID] {
			t.Errorf("experiment %q has no artifacts/%s.txt", e.ID, e.ID)
		}
		delete(committed, e.ID)
		if e.Bench == "" || benches[e.Bench] {
			t.Errorf("experiment %q: bench name %q empty or duplicated", e.ID, e.Bench)
		}
		benches[e.Bench] = true
	}
	for id := range committed {
		t.Errorf("artifacts/%s.txt has no experiment entry", id)
	}
}

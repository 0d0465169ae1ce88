package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	vb "github.com/vbcloud/vb"
)

func TestFailedShareAndCorrectness(t *testing.T) {
	if got := failedShare(10, 1); got != 0.1 {
		t.Errorf("failedShare(10,1) = %v", got)
	}
	if got := failedShare(0, 0); got != 1 {
		t.Errorf("nothing attempted must not read as success: %v", got)
	}
	b := newBench()
	b.calib = []float64{calibRef}
	for _, m := range endToEnd {
		b.set(m.Name, 1)
	}
	b.attempt(true, "ok")
	b.attempt(false, "deliberate failure")
	b.attempt(true, "ok")
	res, err := b.finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 3 || res.Failed != 1 {
		t.Errorf("result %+v: want incorrect with 1 of 3 failed", res)
	}
	if !near(failedShare(res.Attempted, res.Failed), 1.0/3) {
		t.Errorf("failed share %v", failedShare(res.Attempted, res.Failed))
	}
}

func TestFinishRequiresEveryEndToEndMetric(t *testing.T) {
	b := newBench()
	b.attempt(true, "ok")
	b.calib = []float64{calibRef}
	b.set("wall_s", 1)
	if _, err := b.finish(); err == nil {
		t.Error("untraced result with missing metrics accepted")
	}
	for _, m := range endToEnd {
		b.set(m.Name, 1)
	}
	b.calib = nil
	if _, err := b.finish(); err == nil {
		t.Error("untraced result without calibration samples accepted")
	}
	b.calib = []float64{calibRef}
	b.set("step_p50_ms", math.NaN())
	if _, err := b.finish(); err == nil {
		t.Error("NaN metric accepted")
	}
	// The traced run reports unreached layers as 0.
	tb := newBench()
	tb.trace = true
	tb.attempt(true, "ok")
	res, err := tb.finish()
	if err != nil || len(res.Metrics) != len(perLayer) || !res.Correct {
		t.Errorf("traced finish: %d metrics, correct %v, err %v", len(res.Metrics), res.Correct, err)
	}
}

func TestFinishScalesTimesByHostSpeed(t *testing.T) {
	b := newBench()
	b.attempt(true, "ok")
	for _, m := range endToEnd {
		b.set(m.Name, 3)
	}
	// The kernel ran at twice its reference time, so the host was at half
	// speed: times halve, bytes do not.
	b.calib = []float64{2 * calibRef, 2 * calibRef, 100}
	res, err := b.finish()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range endToEnd {
		want := 3.0
		if timeScaled(m) {
			want = 1.5
		}
		if got := res.Metrics[m.Name].Value; !near(got, want) {
			t.Errorf("%s = %v, want %v", m.Name, got, want)
		}
	}
	if !strings.Contains(b.notes["wall_s"], "unscaled 3") {
		t.Errorf("wall_s note %q lacks the unscaled value", b.notes["wall_s"])
	}
	// The traced run's per-layer figures are not scaled.
	tb := newBench()
	tb.trace = true
	tb.attempt(true, "ok")
	tb.set("mip.solve_s", 3)
	if res, err := tb.finish(); err != nil || res.Metrics["mip.solve_s"].Value != 3 {
		t.Errorf("traced mip.solve_s = %v, %v; want 3 unscaled", res.Metrics["mip.solve_s"].Value, err)
	}
}

func TestCheckSameFailsOnDifferingRepetition(t *testing.T) {
	b := newBench()
	var first string
	b.checkSame("x", &first, "report A")
	b.checkSame("x", &first, "report A")
	if b.failed != 0 {
		t.Fatal("identical repetitions counted as failed")
	}
	b.checkSame("x", &first, "report B")
	if b.attempted != 3 || b.failed != 1 {
		t.Errorf("attempted %d failed %d, want 3 and 1", b.attempted, b.failed)
	}
	var empty string
	b.checkSame("y", &empty, "")
	if b.failed != 2 {
		t.Error("an empty first output must fail")
	}
}

func TestCheckTable1GoldenFailsOnWrongReference(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "testdata"), 0o755); err != nil {
		t.Fatal(err)
	}
	golden := "Table 1: golden\n"
	if err := os.WriteFile(filepath.Join(root, "testdata", "table1_seed.golden"), []byte(golden), 0o644); err != nil {
		t.Fatal(err)
	}
	b := newBench()
	b.root = root
	b.checkTable1Golden(vb.DefaultSeed, golden)
	if b.attempted != 1 || b.failed != 0 {
		t.Fatalf("matching golden: attempted %d failed %d", b.attempted, b.failed)
	}
	b.checkTable1Golden(vb.DefaultSeed, "Table 1: drifted\n")
	if b.failed != 1 {
		t.Error("drifted report passed the golden check")
	}
	b.checkTable1Golden(vb.DefaultSeed+1, "anything")
	if b.attempted != 2 {
		t.Error("the golden applies only at DefaultSeed")
	}
	b.root = t.TempDir() // no golden file at all
	b.checkTable1Golden(vb.DefaultSeed, golden)
	if b.failed != 2 {
		t.Error("a missing golden must fail")
	}
}

func TestCheckFig4RunsFailsOnWrongSeries(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two 7-day cluster simulations")
	}
	tl, err := buildFig4Input(3, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var stepMS []float64
	runs, err := fig4Unit(tl, nil, 0, &stepMS)
	if err != nil {
		t.Fatal(err)
	}
	if len(stepMS) != 2*(fig4Warmup+fig4Days*96) {
		t.Errorf("timed %d steps", len(stepMS))
	}
	b := newBench()
	b.checkFig4Runs(tl, runs, true)
	if b.attempted != 4 || b.failed != 0 {
		t.Fatalf("faithful Site.Step series: attempted %d failed %d", b.attempted, b.failed)
	}
	// Corrupt one value of the wind site's out series in a copy: both the
	// repetition digest and the RunCluster reference must catch it.
	bad := append([]siteRun(nil), runs...)
	bad[1].out = append([]float64(nil), runs[1].out...)
	bad[1].out[len(bad[1].out)/2] += 1e-9
	b.checkFig4Runs(tl, bad, true)
	if b.failed != 2 {
		t.Errorf("corrupted series: %d failures, want 2", b.failed)
	}
}

func TestDigestFloatsUsesExactBits(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{1, 2, math.Nextafter(3, 4)}
	if digestFloats(a) == digestFloats(b) || sameFloats(a, b) {
		t.Error("one-ulp difference not detected")
	}
	if digestFloats(a, nil) == digestFloats(nil, a) {
		t.Error("series boundaries not part of the digest")
	}
}

func TestCheckAttribution(t *testing.T) {
	b := newBench()
	b.checkAttribution(9.5, 10.5, 10) // 5% over, 5% overhead: fine
	if b.failed != 0 {
		t.Fatal("consistent attribution failed")
	}
	b.checkAttribution(5, 10.5, 10) // half the wall unexplained
	if b.failed != 1 {
		t.Error("half-explained wall time passed")
	}
	if !near(b.metrics["bench.trace_overhead"], 0.05) || !near(b.metrics["bench.attributed_share"], 5/10.5) {
		t.Errorf("metrics %v", b.metrics)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the code's metric
// and workload tables in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var cfg struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in code", len(cfg.Workloads), len(workloads))
	}
	for _, w := range cfg.Workloads {
		if _, ok := workloads[w.Name]; !ok || strings.TrimSpace(w.Why) == "" {
			t.Errorf("workload %q: in code %v, why %q", w.Name, ok, w.Why)
		}
	}
	check := func(kind string, got []metricDef, names, units []string) {
		if len(got) != len(names) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(names), len(got))
			return
		}
		for i, m := range got {
			if m.Name != names[i] || m.Unit != units[i] {
				t.Errorf("%s[%d]: code %s/%s, BENCHMARK.json %s/%s", kind, i, m.Name, m.Unit, names[i], units[i])
			}
		}
	}
	var n, u []string
	for _, m := range cfg.EndToEnd {
		n, u = append(n, m.Name), append(u, m.Unit)
	}
	check("end_to_end", endToEnd, n, u)
	n, u = nil, nil
	for _, m := range cfg.PerLayer {
		n, u = append(n, m.Name), append(u, m.Unit)
	}
	check("per_layer", perLayer, n, u)
}

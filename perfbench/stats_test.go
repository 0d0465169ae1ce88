package main

import (
	"math"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.1, 1}, {0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Error("quantile sorted its input in place")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

func TestMedianAndMean(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v", got)
	}
	if got := meanOfMedians([][]float64{{1, 3, 100}, {5}, nil}); got != 4 {
		t.Errorf("meanOfMedians = %v, want 4", got)
	}
}

func TestBeyondCountsSamplesAboveThePercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{
		{100, 0.90, 10},
		{112, 0.90, 11},
		{99, 0.90, 9},
		{1000, 0.99, 10},
		{748, 0.99, 7},
		{20, 0.50, 10},
		{0, 0.5, 0},
	} {
		if got := beyond(c.n, c.q); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
}

func TestTailPercentileChoosesBySampleCount(t *testing.T) {
	cands := []float64{0.5, 0.9, 0.95, 0.99}
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{1000, 0.99, true},
		{999, 0.95, true},
		{200, 0.95, true},
		{199, 0.9, true},
		{100, 0.9, true},
		{99, 0.5, true},
		{20, 0.5, true},
		{19, 0, false},
	} {
		got, ok := tailPercentile(c.n, cands)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v,%v, want %v,%v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileFlagsThinTails(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i)
	}
	p := percentile(xs, 0.9)
	if p.N != 99 || p.Beyond != 9 || p.enough() {
		t.Errorf("p90 of 99: %+v should rest on 9 samples beyond and be flagged", p)
	}
	b := newBench()
	b.setPct("step_p90_ms", p)
	if b.metrics["step_p90_ms"] != p.Value || b.notes["step_p90_ms"] == "" {
		t.Errorf("setPct did not record value and note: %v %q", b.metrics, b.notes["step_p90_ms"])
	}
}

func TestStepMediansTakeEachStepOverPasses(t *testing.T) {
	// Three steps over three passes; the second pass stalls on step 1.
	passes := [][]float64{{1, 2, 30}, {1, 200, 10}, {3, 4, 20}}
	got := stepMedians(passes)
	want := []float64{1, 4, 20}
	if len(got) != len(want) {
		t.Fatalf("stepMedians = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("step %d: %v, want %v", i, got[i], want[i])
		}
	}
}

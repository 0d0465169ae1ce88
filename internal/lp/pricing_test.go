package lp

import (
	"math"
	"math/rand"
	"testing"
)

// updateDRef is the column-wise reduced-cost update the row-wise updateD
// replaced: α_rj = ρ_r·A_j formed by a dot product down every nonbasic
// column. It applies the update to d, leaving the instance untouched.
func updateDRef(in *Instance, d []float64, leave, enter, out int) {
	ratio := d[enter] / in.w[leave]
	if ratio == 0 {
		d[enter] = 0
		d[out] = 0
		return
	}
	rowR := make([]float64, in.m)
	in.fac.rowOfInverse(leave, rowR)
	for j := 0; j < in.n; j++ {
		if in.vstat[j] == vsBasic || j == enter {
			continue
		}
		if alpha := in.colDot(rowR, j); alpha != 0 {
			d[j] -= ratio * alpha
		}
	}
	d[enter] = 0
	d[out] = -ratio
}

// TestUpdateDMatchesColumnwise pins the row-wise pricing update bit for
// bit: over the differential corpus (nonnegative, bounded, larger,
// degenerate and ill-conditioned LPs), on both the sparse-LU and the dense
// factorizer, every phase-2 pivot's reduced costs must carry exactly the
// bits the column-wise reference gives from the same pre-pivot state.
func TestUpdateDMatchesColumnwise(t *testing.T) {
	iters := 400
	if testing.Short() {
		iters = 60
	}
	var corpus []Problem
	for s := 0; s < iters; s++ {
		corpus = append(corpus,
			randomProblem(rand.New(rand.NewSource(int64(s))), false),
			randomProblem(rand.New(rand.NewSource(int64(1_000_000+s))), true))
		rng := rand.New(rand.NewSource(int64(2_000_000 + s)))
		p := randomProblem(rng, s%2 == 0)
		corpus = append(corpus, growProblem(rng, p, 10+rng.Intn(16)))
		rng = rand.New(rand.NewSource(int64(6_000_000 + s)))
		corpus = append(corpus, degenerateProblem(rng, 4+rng.Intn(10)))
		corpus = append(corpus, illConditionedProblem(rand.New(rand.NewSource(int64(7_000_000+s)))))
	}

	rowwise := pivotUpdateD
	defer func() { pivotUpdateD = rowwise }()
	var checked, moved int
	var want []float64
	pivotUpdateD = func(in *Instance, leave, enter, out int) {
		want = append(want[:0], in.d...)
		updateDRef(in, want, leave, enter, out)
		rowwise(in, leave, enter, out)
		for j, v := range want {
			if math.Float64bits(in.d[j]) != math.Float64bits(v) {
				t.Fatalf("pivot %d: d[%d] = %v (%#x), column-wise reference %v (%#x)",
					checked, j, in.d[j], math.Float64bits(in.d[j]), v, math.Float64bits(v))
			}
		}
		checked++
		if in.d[out] != 0 {
			moved++
		}
	}
	for i, p := range corpus {
		if err := p.Validate(); err != nil {
			t.Fatalf("corpus problem %d: %v", i, err)
		}
		for _, compile := range []func(Problem) (*Instance, error){NewInstance, NewInstanceDense} {
			in, err := compile(p)
			if err != nil {
				t.Fatal(err)
			}
			_, _ = in.SolveCurrent() // statuses and errors are the differential tests' concern
		}
	}
	// The corpus must actually exercise the update, with nonzero steps.
	if checked < len(corpus) || moved == 0 {
		t.Fatalf("only %d pivots checked (%d with a nonzero ratio) over %d problems", checked, moved, len(corpus))
	}
	t.Logf("%d phase-2 pivots checked bit-exact (%d with a nonzero ratio)", checked, moved)
}

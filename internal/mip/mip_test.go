package mip

import (
	"math"
	"testing"

	"github.com/vbcloud/vb/internal/lp"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-5 }

func solveOK(t *testing.T, p Problem) Solution {
	t.Helper()
	s, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != lp.Optimal {
		t.Fatalf("status = %v, want optimal", s.Status)
	}
	return s
}

func TestPureLPPassThrough(t *testing.T) {
	s := solveOK(t, Problem{
		Problem: lp.Problem{
			NumVars:   2,
			Objective: []float64{3, 5},
			Maximize:  true,
			Constraints: []lp.Constraint{
				lp.DenseRow([]float64{1, 0}, lp.LE, 4),
				lp.DenseRow([]float64{0, 2}, lp.LE, 12),
				lp.DenseRow([]float64{3, 2}, lp.LE, 18),
			},
		},
	})
	if !approx(s.Objective, 36) {
		t.Errorf("obj = %v, want 36", s.Objective)
	}
	if !s.Proven {
		t.Error("pure LP should be proven")
	}
}

// Classic IP where LP relaxation is fractional:
// max x + y s.t. 2x + 2y <= 3, x,y integer -> optimum 1 (LP gives 1.5).
func TestIntegerRounding(t *testing.T) {
	s := solveOK(t, Problem{
		Problem: lp.Problem{
			NumVars:   2,
			Objective: []float64{1, 1},
			Maximize:  true,
			Constraints: []lp.Constraint{
				lp.DenseRow([]float64{2, 2}, lp.LE, 3),
			},
		},
		Integer: []bool{true, true},
	})
	if !approx(s.Objective, 1) {
		t.Errorf("obj = %v, want 1 (LP relaxation would give 1.5)", s.Objective)
	}
	for i, v := range s.X {
		if math.Abs(v-math.Round(v)) > 1e-9 {
			t.Errorf("X[%d] = %v not integral", i, v)
		}
	}
}

// Knapsack: items (value, weight): (10,5), (13,6), (7,4), capacity 10.
// Best: items 2+3 = 20 (weight exactly 10). LP relaxation takes fractions.
func TestKnapsack(t *testing.T) {
	s := solveOK(t, Problem{
		Problem: lp.Problem{
			NumVars:   3,
			Objective: []float64{10, 13, 7},
			Maximize:  true,
			Constraints: []lp.Constraint{
				lp.DenseRow([]float64{5, 6, 4}, lp.LE, 10),
				// Binary upper bounds.
				lp.DenseRow([]float64{1, 0, 0}, lp.LE, 1),
				lp.DenseRow([]float64{0, 1, 0}, lp.LE, 1),
				lp.DenseRow([]float64{0, 0, 1}, lp.LE, 1),
			},
		},
		Integer: []bool{true, true, true},
	})
	if !approx(s.Objective, 20) {
		t.Errorf("knapsack = %v, want 20", s.Objective)
	}
	if !approx(s.X[0], 0) || !approx(s.X[1], 1) || !approx(s.X[2], 1) {
		t.Errorf("selection = %v, want [0 1 1]", s.X)
	}
}

func TestInfeasibleIP(t *testing.T) {
	// 2x == 3 with x integer is infeasible (LP feasible at 1.5).
	s, err := Solve(Problem{
		Problem: lp.Problem{
			NumVars:   1,
			Objective: []float64{1},
			Constraints: []lp.Constraint{
				lp.DenseRow([]float64{2}, lp.EQ, 3),
			},
		},
		Integer: []bool{true},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != lp.Infeasible {
		t.Errorf("status = %v, want infeasible", s.Status)
	}
}

func TestUnboundedIP(t *testing.T) {
	s, err := Solve(Problem{
		Problem: lp.Problem{
			NumVars:   1,
			Objective: []float64{1},
			Maximize:  true,
			Constraints: []lp.Constraint{
				lp.DenseRow([]float64{1}, lp.GE, 0),
			},
		},
		Integer: []bool{true},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != lp.Unbounded {
		t.Errorf("status = %v, want unbounded", s.Status)
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// max 2x + y, x integer, y continuous; x <= 2.5, x + y <= 4.
	// x=2 (integer), y=2 -> 6. Pure LP would give x=2.5, y=1.5 -> 6.5.
	s := solveOK(t, Problem{
		Problem: lp.Problem{
			NumVars:   2,
			Objective: []float64{2, 1},
			Maximize:  true,
			Constraints: []lp.Constraint{
				lp.DenseRow([]float64{1, 0}, lp.LE, 2.5),
				lp.DenseRow([]float64{1, 1}, lp.LE, 4),
			},
		},
		Integer: []bool{true, false},
	})
	if !approx(s.Objective, 6) || !approx(s.X[0], 2) || !approx(s.X[1], 2) {
		t.Errorf("got obj=%v x=%v, want 6 (2,2)", s.Objective, s.X)
	}
}

func TestValidation(t *testing.T) {
	if _, err := Solve(Problem{}, Options{}); err == nil {
		t.Error("empty problem should error")
	}
	if _, err := Solve(Problem{
		Problem: lp.Problem{NumVars: 1, Objective: []float64{1}},
		Integer: []bool{true, true},
	}, Options{}); err == nil {
		t.Error("too many integrality flags should error")
	}
}

func TestNodeLimit(t *testing.T) {
	// A problem needing branching, solved with MaxNodes=1: not proven.
	s, err := Solve(Problem{
		Problem: lp.Problem{
			NumVars:   2,
			Objective: []float64{1, 1},
			Maximize:  true,
			Constraints: []lp.Constraint{
				lp.DenseRow([]float64{2, 2}, lp.LE, 3),
			},
		},
		Integer: []bool{true, true},
	}, Options{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Proven {
		t.Error("truncated search should not be proven")
	}
	if s.Nodes != 1 {
		t.Errorf("nodes = %d, want 1", s.Nodes)
	}
}

func TestGapTermination(t *testing.T) {
	// With a huge allowed gap, search stops at the first incumbent.
	s, err := Solve(Problem{
		Problem: lp.Problem{
			NumVars:   3,
			Objective: []float64{10, 13, 7},
			Maximize:  true,
			Constraints: []lp.Constraint{
				lp.DenseRow([]float64{5, 6, 4}, lp.LE, 10),
				lp.DenseRow([]float64{1, 0, 0}, lp.LE, 1),
				lp.DenseRow([]float64{0, 1, 0}, lp.LE, 1),
				lp.DenseRow([]float64{0, 0, 1}, lp.LE, 1),
			},
		},
		Integer: []bool{true, true, true},
	}, Options{Gap: 10})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != lp.Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	// Any feasible solution acceptable at this gap; objective in [0, 20].
	if s.Objective < 0 || s.Objective > 20+1e-6 {
		t.Errorf("objective %v outside feasible range", s.Objective)
	}
}

// Scheduler-shaped problem: assign an app's 10 VMs across 3 sites with
// binary "site used" indicators and a minimax peak term. Site capacities 6,
// 6, 6; using a site costs a fixed overhead of 2 in the objective; peak
// allocation t is also minimized. Optimal: use 2 sites (5+5), t=5,
// obj = 2*2 + 5 = 9 (vs 3 sites: 6+4s... 3 sites: overhead 6 + t>=4 -> 10).
func TestSchedulerShape(t *testing.T) {
	// Vars: x1,x2,x3 (alloc), y1,y2,y3 (binary used), t (peak).
	bigM := 6.0
	s := solveOK(t, Problem{
		Problem: lp.Problem{
			NumVars:   7,
			Objective: []float64{0, 0, 0, 2, 2, 2, 1},
			Constraints: []lp.Constraint{
				lp.DenseRow([]float64{1, 1, 1, 0, 0, 0, 0}, lp.EQ, 10),
				// Capacity + linking: x_i <= 6*y_i.
				lp.DenseRow([]float64{1, 0, 0, -bigM, 0, 0, 0}, lp.LE, 0),
				lp.DenseRow([]float64{0, 1, 0, 0, -bigM, 0, 0}, lp.LE, 0),
				lp.DenseRow([]float64{0, 0, 1, 0, 0, -bigM, 0}, lp.LE, 0),
				// Peak: x_i <= t.
				lp.DenseRow([]float64{1, 0, 0, 0, 0, 0, -1}, lp.LE, 0),
				lp.DenseRow([]float64{0, 1, 0, 0, 0, 0, -1}, lp.LE, 0),
				lp.DenseRow([]float64{0, 0, 1, 0, 0, 0, -1}, lp.LE, 0),
				// Binary bounds.
				lp.DenseRow([]float64{0, 0, 0, 1, 0, 0, 0}, lp.LE, 1),
				lp.DenseRow([]float64{0, 0, 0, 0, 1, 0, 0}, lp.LE, 1),
				lp.DenseRow([]float64{0, 0, 0, 0, 0, 1, 0}, lp.LE, 1),
			},
		},
		Integer: []bool{false, false, false, true, true, true, false},
	})
	if !approx(s.Objective, 9) {
		t.Errorf("scheduler-shape optimum = %v, want 9 (X=%v)", s.Objective, s.X)
	}
	used := 0
	for i := 3; i < 6; i++ {
		if s.X[i] > 0.5 {
			used++
		}
	}
	if used != 2 {
		t.Errorf("sites used = %d, want 2", used)
	}
}

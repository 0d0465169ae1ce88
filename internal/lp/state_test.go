package lp

import (
	"bytes"
	"encoding/gob"
	"math/rand/v2"
	"reflect"
	"testing"
)

// TestInstanceStateRoundTrip pins the crash-recovery contract for both
// basis representations: after a solve, an encode/decode cycle reproduces
// the instance bit-exactly (a restored instance even re-encodes to the
// same bytes), and a refreshed re-solve from the decoded instance pivots
// to exactly the same solution as the original would.
func TestInstanceStateRoundTrip(t *testing.T) {
	for _, mode := range []struct {
		name string
		mk   func(Problem) (*Instance, error)
	}{
		{"sparse", NewInstance},
		{"dense", NewInstanceDense},
	} {
		t.Run(mode.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(7, 11))
			for trial := 0; trial < 50; trial++ {
				p := randomStateProblem(rng)
				orig, err := mode.mk(p)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := orig.SolveCurrent(); err != nil {
					t.Fatal(err)
				}

				var buf bytes.Buffer
				if err := gob.NewEncoder(&buf).Encode(orig); err != nil {
					t.Fatal(err)
				}
				restored := new(Instance)
				if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(restored); err != nil {
					t.Fatal(err)
				}

				// Bit-exact persistent state.
				for _, c := range []struct {
					name string
					a, b interface{}
				}{
					{"basis", orig.basis, restored.basis},
					{"vstat", orig.vstat, restored.vstat},
					{"xB", orig.xB, restored.xB},
					{"d", orig.d, restored.d},
					{"lo", orig.lo, restored.lo},
					{"hi", orig.hi, restored.hi},
					{"cmin", orig.cmin, restored.cmin},
				} {
					if !reflect.DeepEqual(c.a, c.b) {
						t.Fatalf("trial %d: %s differs after round trip", trial, c.name)
					}
				}
				if orig.ready != restored.ready || orig.dExact != restored.dExact ||
					orig.pivots != restored.pivots || orig.refactors != restored.refactors {
					t.Fatalf("trial %d: flags differ after round trip", trial)
				}
				if orig.DenseBasis() != restored.DenseBasis() ||
					orig.EtaChainLen() != restored.EtaChainLen() {
					t.Fatalf("trial %d: basis representation differs after round trip", trial)
				}
				// The factorization itself round-trips bit-exactly: a restored
				// instance re-encodes to the identical byte stream.
				rawA, err := orig.GobEncode()
				if err != nil {
					t.Fatal(err)
				}
				rawB, err := restored.GobEncode()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(rawA, rawB) {
					t.Fatalf("trial %d: re-encoded snapshot differs from original", trial)
				}

				// A perturbed re-solve follows the identical pivot path on both.
				q := p
				q.Objective = append([]float64(nil), p.Objective...)
				for i := range q.Objective {
					q.Objective[i] *= 1.1
				}
				if !orig.Refresh(q) || !restored.Refresh(q) {
					t.Fatalf("trial %d: refresh failed", trial)
				}
				stA, errA := orig.SolveCurrent()
				stB, errB := restored.SolveCurrent()
				if (errA == nil) != (errB == nil) || stA != stB {
					t.Fatalf("trial %d: statuses diverge: %v/%v vs %v/%v", trial, stA, errA, stB, errB)
				}
				if stA == Optimal {
					xa := orig.Values(nil)
					xb := restored.Values(nil)
					for i := range xa {
						if xa[i] != xb[i] {
							t.Fatalf("trial %d: x[%d] = %v vs %v (must be bit-identical)", trial, i, xa[i], xb[i])
						}
					}
					if orig.pivots != restored.pivots {
						t.Fatalf("trial %d: pivot counts diverge: %d vs %d", trial, orig.pivots, restored.pivots)
					}
				}
			}
		})
	}
}

// legacyInstanceState is the pre-sparse-LU snapshot layout (no Mode field,
// dense inverse only). Gob matches struct fields by name, so encoding this
// reproduces byte streams written by old builds.
type legacyInstanceState struct {
	M, NStruct int
	Maximize   bool

	Cmin, B        []float64
	Senses         []Sense
	BaseLo, BaseHi []float64

	ColPtr, ColRow []int32
	ColVal         []float64
	RowPtr, RowCol []int32
	RowVal         []float64

	Lo, Hi    []float64
	Basis     []int32
	Vstat     []int8
	Binv      []float64
	BinvIdent bool
	XB        []float64
	Ready     bool
	D         []float64
	DExact    bool

	Pivots int64
}

// TestInstanceDecodeLegacySnapshot pins the documented compatibility
// choice: a snapshot written before the sparse kernel (no Mode field)
// restores onto the retained dense product-form path and replays the
// writer's exact arithmetic — it is not rejected and not converted.
func TestInstanceDecodeLegacySnapshot(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	for trial := 0; trial < 20; trial++ {
		p := randomStateProblem(rng)
		orig, err := NewInstanceDense(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := orig.SolveCurrent(); err != nil {
			t.Fatal(err)
		}
		df := orig.fac.(*denseFactor)
		legacy := legacyInstanceState{
			M: orig.m, NStruct: orig.nStruct, Maximize: orig.maximize,
			Cmin: orig.cmin, B: orig.b, Senses: orig.senses,
			BaseLo: orig.baseLo, BaseHi: orig.baseHi,
			ColPtr: orig.colPtr, ColRow: orig.colRow, ColVal: orig.colVal,
			RowPtr: orig.rowPtr, RowCol: orig.rowCol, RowVal: orig.rowVal,
			Lo: orig.lo, Hi: orig.hi,
			Basis: orig.basis, Vstat: orig.vstat,
			Binv: df.binv, BinvIdent: df.ident,
			XB: orig.xB, Ready: orig.ready,
			D: orig.d, DExact: orig.dExact,
			Pivots: orig.pivots,
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(legacy); err != nil {
			t.Fatal(err)
		}
		restored := new(Instance)
		if err := restored.GobDecode(buf.Bytes()); err != nil {
			t.Fatalf("trial %d: legacy snapshot rejected: %v", trial, err)
		}
		if !restored.DenseBasis() {
			t.Fatalf("trial %d: legacy snapshot restored onto non-dense basis", trial)
		}
		rf := restored.fac.(*denseFactor)
		if !reflect.DeepEqual(df.binv, rf.binv) || df.ident != rf.ident {
			t.Fatalf("trial %d: dense inverse differs after legacy restore", trial)
		}

		// The restored instance replays the writer's pivot path exactly.
		q := p
		q.Objective = append([]float64(nil), p.Objective...)
		for i := range q.Objective {
			q.Objective[i] *= 0.9
		}
		if !orig.Refresh(q) || !restored.Refresh(q) {
			t.Fatalf("trial %d: refresh failed", trial)
		}
		stA, errA := orig.SolveCurrent()
		stB, errB := restored.SolveCurrent()
		if (errA == nil) != (errB == nil) || stA != stB {
			t.Fatalf("trial %d: statuses diverge: %v/%v vs %v/%v", trial, stA, errA, stB, errB)
		}
		if stA == Optimal {
			xa := orig.Values(nil)
			xb := restored.Values(nil)
			for i := range xa {
				if xa[i] != xb[i] {
					t.Fatalf("trial %d: x[%d] = %v vs %v (must be bit-identical)", trial, i, xa[i], xb[i])
				}
			}
			if orig.pivots != restored.pivots {
				t.Fatalf("trial %d: pivot counts diverge: %d vs %d", trial, orig.pivots, restored.pivots)
			}
		}
	}
}

// TestInstanceDecodeRejectsCorrupt checks that truncated or inconsistent
// snapshots fail loudly instead of producing a silently wrong solver.
func TestInstanceDecodeRejectsCorrupt(t *testing.T) {
	p := Problem{
		NumVars:   2,
		Objective: []float64{1, 1},
		Constraints: []Constraint{
			DenseRow([]float64{1, 1}, LE, 4),
		},
	}
	inst, err := NewInstance(p)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := inst.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	if err := new(Instance).GobDecode(raw[:len(raw)/2]); err == nil {
		t.Error("truncated payload should fail to decode")
	}
	if err := new(Instance).GobDecode([]byte("not gob")); err == nil {
		t.Error("garbage payload should fail to decode")
	}

	// Internally inconsistent sparse payloads are rejected by validation.
	encode := func(mutate func(*instanceState)) []byte {
		if _, err := inst.SolveCurrent(); err != nil {
			t.Fatal(err)
		}
		good, err := inst.GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		var st instanceState
		if err := gob.NewDecoder(bytes.NewReader(good)).Decode(&st); err != nil {
			t.Fatal(err)
		}
		mutate(&st)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(st); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, c := range []struct {
		name   string
		mutate func(*instanceState)
	}{
		{"unknown mode", func(st *instanceState) { st.Mode = 42 }},
		{"short pivRow", func(st *instanceState) { st.LuPivRow = st.LuPivRow[:0] }},
		{"out-of-range pivot", func(st *instanceState) { st.LuPivRow[0] = 99 }},
		{"eta ptr mismatch", func(st *instanceState) {
			st.EtaRow = append(st.EtaRow, 0)
			st.EtaPiv = append(st.EtaPiv, 1)
		}},
		// The row mirror indexes the pricing scratch (nStruct wide) and the
		// columns index the rows: a slack or out-of-range index must fail
		// here, not panic in the first pivot.
		{"row index is a slack", func(st *instanceState) { st.RowCol[0] = int32(st.NStruct) }},
		{"negative row index", func(st *instanceState) { st.RowCol[1] = -1 }},
		{"column row out of range", func(st *instanceState) { st.ColRow[0] = int32(st.M) }},
		{"row ptr past end", func(st *instanceState) { st.RowPtr[st.M] = int32(len(st.RowCol) + 1) }},
		{"col ptr out of order", func(st *instanceState) { st.ColPtr[1], st.ColPtr[2] = 2, 1 }},
		{"row values short", func(st *instanceState) { st.RowVal = st.RowVal[:1] }},
	} {
		if err := new(Instance).GobDecode(encode(c.mutate)); err == nil {
			t.Errorf("%s: corrupt sparse payload should fail to decode", c.name)
		}
	}
}

// randomProblem builds a small random feasible-ish LP (bounded variables,
// mixed senses) for round-trip trials.
func randomStateProblem(rng *rand.Rand) Problem {
	n := 3 + rng.IntN(5)
	m := 2 + rng.IntN(4)
	p := Problem{
		NumVars:   n,
		Objective: make([]float64, n),
		Upper:     make([]float64, n),
	}
	for j := 0; j < n; j++ {
		p.Objective[j] = rng.Float64()*4 - 2
		p.Upper[j] = 1 + rng.Float64()*9
	}
	for i := 0; i < m; i++ {
		co := make([]float64, n)
		c := Constraint{Sense: LE, RHS: 2 + rng.Float64()*10}
		if rng.IntN(3) == 0 {
			c.Sense = GE
			c.RHS = rng.Float64()
		}
		for j := 0; j < n; j++ {
			if rng.IntN(2) == 0 {
				co[j] = rng.Float64() * 3
			}
		}
		p.Constraints = append(p.Constraints, DenseRow(co, c.Sense, c.RHS))
	}
	return p
}

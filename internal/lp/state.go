package lp

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// Instance state serialization for crash recovery of long-lived schedulers.
//
// A warm-started solve's pivot path — and therefore which of several
// alternate optimal vertices it returns — depends on the exact numeric
// state the previous solve left behind: the basis, the nonbasic variable
// statuses, the basis factorization, and the incrementally maintained
// reduced costs. Snapshotting a daemon mid-run therefore has to round-trip
// all of it bit-exactly, or a restored process replans onto different
// (equally optimal, but different) vertices than the uninterrupted one
// would. Gob encodes float64 by bit pattern, so the round trip is exact,
// infinities included.
//
// Compatibility: Mode selects the basis representation. Snapshots written
// before the sparse LU kernel carry no Mode field, which gob decodes as the
// zero value — modeDense — so old payloads restore onto the retained dense
// product-form path and replay the exact arithmetic of the process that
// wrote them. Sparse-mode snapshots (modeSparseLU) carry the full LU and
// eta chain bit-exactly.

const (
	modeDense    int8 = 0 // legacy dense product-form inverse (gob zero value)
	modeSparseLU int8 = 1
)

// instanceState mirrors every Instance field that outlives a solve. The
// scratch arrays (accum, w, y, rowScratch, valScratch, cb1 and the pricing
// scratch) are overwritten before every use and are reallocated empty on
// decode.
type instanceState struct {
	M, NStruct int
	Maximize   bool

	Cmin, B        []float64
	Senses         []Sense
	BaseLo, BaseHi []float64

	ColPtr, ColRow []int32
	ColVal         []float64
	RowPtr, RowCol []int32
	RowVal         []float64

	Lo, Hi []float64
	Basis  []int32
	Vstat  []int8
	XB     []float64
	Ready  bool
	D      []float64
	DExact bool

	Pivots    int64
	Refactors int64

	// Mode 0 (dense): Binv/BinvIdent. Old snapshots have only these.
	Mode      int8
	Binv      []float64
	BinvIdent bool

	// Mode 1 (sparse LU): factorization plus eta chain.
	LuPivRow, LuPivCol []int32
	LuLPtr, LuLIdx     []int32
	LuLVal             []float64
	LuUPtr, LuUIdx     []int32
	LuUVal             []float64
	LuDiag             []float64
	LuTrivial          bool
	EtaRow             []int32
	EtaPiv             []float64
	EtaPtr, EtaIdx     []int32
	EtaVal             []float64
}

// GobEncode serializes the compiled problem and the warm solver state.
func (in *Instance) GobEncode() ([]byte, error) {
	st := instanceState{
		M: in.m, NStruct: in.nStruct, Maximize: in.maximize,
		Cmin: in.cmin, B: in.b, Senses: in.senses,
		BaseLo: in.baseLo, BaseHi: in.baseHi,
		ColPtr: in.colPtr, ColRow: in.colRow, ColVal: in.colVal,
		RowPtr: in.rowPtr, RowCol: in.rowCol, RowVal: in.rowVal,
		Lo: in.lo, Hi: in.hi,
		Basis: in.basis, Vstat: in.vstat,
		XB: in.xB, Ready: in.ready,
		D: in.d, DExact: in.dExact,
		Pivots: in.pivots, Refactors: in.refactors,
	}
	switch f := in.fac.(type) {
	case *denseFactor:
		st.Mode = modeDense
		st.Binv, st.BinvIdent = f.binv, f.ident
	case *sparseLU:
		st.Mode = modeSparseLU
		st.LuPivRow, st.LuPivCol = f.pivRow, f.pivCol
		st.LuLPtr, st.LuLIdx, st.LuLVal = f.lPtr, f.lIdx, f.lVal
		st.LuUPtr, st.LuUIdx, st.LuUVal = f.uPtr, f.uIdx, f.uVal
		st.LuDiag, st.LuTrivial = f.diag, f.trivial
		st.EtaRow, st.EtaPiv = f.etaRow, f.etaPiv
		st.EtaPtr, st.EtaIdx, st.EtaVal = f.etaPtr, f.etaIdx, f.etaVal
	default:
		return nil, fmt.Errorf("lp: encoding instance: unknown basis representation %T", in.fac)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("lp: encoding instance: %w", err)
	}
	return buf.Bytes(), nil
}

// GobDecode restores an instance serialized by GobEncode. The decoded
// instance solves exactly as the original would have: same warm basis,
// same factorization, same reduced costs, hence the same pivot path.
func (in *Instance) GobDecode(b []byte) error {
	var st instanceState
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&st); err != nil {
		return fmt.Errorf("lp: decoding instance: %w", err)
	}
	m, ns := st.M, st.NStruct
	n := ns + m
	if m < 0 || ns <= 0 {
		return fmt.Errorf("lp: decoded instance has %d rows, %d vars", m, ns)
	}
	for _, c := range []struct {
		name string
		got  int
		want int
	}{
		{"cmin", len(st.Cmin), n}, {"b", len(st.B), m}, {"senses", len(st.Senses), m},
		{"baseLo", len(st.BaseLo), n}, {"baseHi", len(st.BaseHi), n},
		{"colPtr", len(st.ColPtr), ns + 1}, {"rowPtr", len(st.RowPtr), m + 1},
		{"lo", len(st.Lo), n}, {"hi", len(st.Hi), n},
		{"basis", len(st.Basis), m}, {"vstat", len(st.Vstat), n},
		{"xB", len(st.XB), m}, {"d", len(st.D), n},
	} {
		if c.got != c.want {
			return fmt.Errorf("lp: decoded instance %s has %d entries, want %d", c.name, c.got, c.want)
		}
	}
	if err := checkPattern("column", st.ColPtr, st.ColRow, len(st.ColVal), m); err != nil {
		return err
	}
	if err := checkPattern("row", st.RowPtr, st.RowCol, len(st.RowVal), ns); err != nil {
		return err
	}
	fac, err := decodeFactor(&st, m)
	if err != nil {
		return err
	}
	*in = Instance{
		m: m, nStruct: ns, n: n, maximize: st.Maximize,
		cmin: st.Cmin, b: st.B, senses: st.Senses,
		baseLo: st.BaseLo, baseHi: st.BaseHi,
		colPtr: st.ColPtr, colRow: st.ColRow, colVal: st.ColVal,
		rowPtr: st.RowPtr, rowCol: st.RowCol, rowVal: st.RowVal,
		lo: st.Lo, hi: st.Hi,
		basis: st.Basis, vstat: st.Vstat,
		fac: fac,
		xB:  st.XB, ready: st.Ready,
		d: st.D, dExact: st.DExact,
		pivots: st.Pivots, refactors: st.Refactors,
	}
	in.allocScratch()
	return nil
}

// decodeFactor validates and rebuilds the basis representation for the
// snapshot's Mode. Gob omits empty slices, so canonical empty forms (ptr
// arrays with a leading zero) are re-normalized here before validation —
// a freshly decoded factor must re-encode to the same bytes.
func decodeFactor(st *instanceState, m int) (factorizer, error) {
	if st.Mode == modeDense {
		if len(st.Binv) != m*m {
			return nil, fmt.Errorf("lp: decoded instance binv has %d entries, want %d", len(st.Binv), m*m)
		}
		return &denseFactor{m: m, binv: st.Binv, ident: st.BinvIdent, tmp: make([]float64, m)}, nil
	}
	if st.Mode != modeSparseLU {
		return nil, fmt.Errorf("lp: decoded instance has unknown basis mode %d", st.Mode)
	}
	if len(st.LuLPtr) == 0 {
		st.LuLPtr = []int32{0}
	}
	if len(st.LuUPtr) == 0 {
		st.LuUPtr = []int32{0}
	}
	if len(st.EtaPtr) == 0 {
		st.EtaPtr = []int32{0}
	}
	ne := len(st.EtaRow)
	for _, c := range []struct {
		name string
		got  int
		want int
	}{
		{"lu pivRow", len(st.LuPivRow), m}, {"lu pivCol", len(st.LuPivCol), m},
		{"lu diag", len(st.LuDiag), m},
		{"lu lPtr", len(st.LuLPtr), m + 1}, {"lu uPtr", len(st.LuUPtr), m + 1},
		{"lu lVal", len(st.LuLVal), len(st.LuLIdx)}, {"lu uVal", len(st.LuUVal), len(st.LuUIdx)},
		{"eta piv", len(st.EtaPiv), ne}, {"eta ptr", len(st.EtaPtr), ne + 1},
		{"eta val", len(st.EtaVal), len(st.EtaIdx)},
	} {
		if c.got != c.want {
			return nil, fmt.Errorf("lp: decoded instance %s has %d entries, want %d", c.name, c.got, c.want)
		}
	}
	if m > 0 && (int(st.LuLPtr[m]) != len(st.LuLIdx) || int(st.LuUPtr[m]) != len(st.LuUIdx)) {
		return nil, fmt.Errorf("lp: decoded instance LU pointers inconsistent with index arrays")
	}
	if m == 0 && (len(st.LuLIdx) != 0 || len(st.LuUIdx) != 0) {
		return nil, fmt.Errorf("lp: decoded instance LU pointers inconsistent with index arrays")
	}
	if int(st.EtaPtr[ne]) != len(st.EtaIdx) {
		return nil, fmt.Errorf("lp: decoded instance eta pointers inconsistent with index arrays")
	}
	checkIdx := func(name string, idx []int32) error {
		for _, r := range idx {
			if r < 0 || int(r) >= m {
				return fmt.Errorf("lp: decoded instance %s index %d out of range [0,%d)", name, r, m)
			}
		}
		return nil
	}
	for _, c := range []struct {
		name string
		idx  []int32
	}{
		{"lu pivRow", st.LuPivRow}, {"lu pivCol", st.LuPivCol},
		{"lu L", st.LuLIdx}, {"lu U", st.LuUIdx},
		{"eta row", st.EtaRow}, {"eta", st.EtaIdx},
	} {
		if err := checkIdx(c.name, c.idx); err != nil {
			return nil, err
		}
	}
	return &sparseLU{
		m:      m,
		pivRow: st.LuPivRow, pivCol: st.LuPivCol,
		lPtr: st.LuLPtr, lIdx: st.LuLIdx, lVal: nonNilF(st.LuLVal),
		uPtr: st.LuUPtr, uIdx: st.LuUIdx, uVal: nonNilF(st.LuUVal),
		diag: st.LuDiag, trivial: st.LuTrivial,
		etaRow: nonNilI(st.EtaRow), etaPiv: nonNilF(st.EtaPiv),
		etaPtr: st.EtaPtr, etaIdx: nonNilI(st.EtaIdx), etaVal: nonNilF(st.EtaVal),
		work: make([]float64, m),
	}, nil
}

// checkPattern validates one compressed side of the decoded constraint
// matrix: ptr starts at zero, never decreases and ends at the index count,
// values parallel the indices, and every index lies in [0, bound). The
// solver indexes its scratch by these entries, so a corrupt payload must
// fail here rather than panic mid-solve.
func checkPattern(name string, ptr, idx []int32, nval, bound int) error {
	if ptr[0] != 0 || int(ptr[len(ptr)-1]) != len(idx) || nval != len(idx) {
		return fmt.Errorf("lp: decoded instance %s pointers inconsistent with index arrays", name)
	}
	for i := 1; i < len(ptr); i++ {
		if ptr[i] < ptr[i-1] {
			return fmt.Errorf("lp: decoded instance %s pointers decrease", name)
		}
	}
	for _, r := range idx {
		if r < 0 || int(r) >= bound {
			return fmt.Errorf("lp: decoded instance %s index %d out of range [0,%d)", name, r, bound)
		}
	}
	return nil
}

func nonNilF(s []float64) []float64 {
	if s == nil {
		return []float64{}
	}
	return s
}

func nonNilI(s []int32) []int32 {
	if s == nil {
		return []int32{}
	}
	return s
}

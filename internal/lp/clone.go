package lp

// Clone returns a deep copy of the instance: same compiled problem, same
// solver state (basis, bounds, factorization), sharing no memory with the
// receiver. Parallel branch-and-bound clones one template per worker and
// then moves state between them with CopyStateFrom.
func (in *Instance) Clone() *Instance {
	c := &Instance{
		m: in.m, nStruct: in.nStruct, n: in.n,
		maximize: in.maximize,
		cmin:     append([]float64(nil), in.cmin...),
		b:        append([]float64(nil), in.b...),
		senses:   append([]Sense(nil), in.senses...),
		baseLo:   append([]float64(nil), in.baseLo...),
		baseHi:   append([]float64(nil), in.baseHi...),

		colPtr: append([]int32(nil), in.colPtr...),
		colRow: append([]int32(nil), in.colRow...),
		colVal: append([]float64(nil), in.colVal...),
		rowPtr: append([]int32(nil), in.rowPtr...),
		rowCol: append([]int32(nil), in.rowCol...),
		rowVal: append([]float64(nil), in.rowVal...),

		lo:    append([]float64(nil), in.lo...),
		hi:    append([]float64(nil), in.hi...),
		basis: append([]int32(nil), in.basis...),
		vstat: append([]int8(nil), in.vstat...),
		fac:   in.fac.clone(),
		xB:    append([]float64(nil), in.xB...),
		ready: in.ready,

		d:      append([]float64(nil), in.d...),
		dExact: in.dExact,

		interrupt: in.interrupt,
	}
	c.allocScratch()
	return c
}

// CopyStateFrom overwrites the receiver's mutable solver state (working
// bounds, basis, statuses, basic values, reduced costs, factorization) with
// src's. Both instances must be clones of the same compiled problem. Pivot
// and refactorization counters are NOT copied: each clone accumulates its
// own deltas, which parallel branch-and-bound sums from processed nodes
// only, keeping the totals independent of speculation.
func (in *Instance) CopyStateFrom(src *Instance) {
	copy(in.lo, src.lo)
	copy(in.hi, src.hi)
	copy(in.basis, src.basis)
	copy(in.vstat, src.vstat)
	copy(in.xB, src.xB)
	copy(in.d, src.d)
	in.dExact = src.dExact
	in.ready = src.ready
	in.facBad = false
	in.fac.copyFrom(src.fac)
}

package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"

	vb "github.com/vbcloud/vb"
)

// digest is a short content hash used to compare repeated outputs.
func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

// digestFloats hashes float series by their exact bit patterns.
func digestFloats(series ...[]float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, xs := range series {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(xs)))
		h.Write(buf[:])
		for _, x := range xs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// sameFloats reports bit-for-bit equality of two series.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sortVMsByID orders one step's arrivals as vb.RunCluster does.
func sortVMsByID(vms []vb.VM) {
	sort.Slice(vms, func(a, b int) bool { return vms[a].ID < vms[b].ID })
}

package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// The host this benchmark was tuned on (2-vCPU Intel Xeon guest) changes
// speed by 20-30% over minutes, and the drift moves whole runs: in one
// set of runs the same workload read 35% slower in its first minutes
// than in its last. A run therefore times a fixed calibration kernel
// between its units and scales its end-to-end time figures by calibRef
// over the kernel's median time, so that they read as seconds at one
// fixed host speed. The kernel is plain Go map, slice, sort and
// allocation work that shares no code with the simulator, so no change
// to the program moves it. Over fourteen 20-second runs of the same
// Table 1 inputs on that host, the raw wall time spread 0.128 (IQR over
// median) and the scaled one 0.055; an arithmetic-only kernel tracked
// the drift worse (0.071).

// calibRef is the kernel's time, in seconds, at the reference speed.
const calibRef = 0.055

// calibSink keeps the kernel's results alive.
var calibSink float64

// calibKernel runs the kernel once and returns its wall seconds.
func calibKernel() float64 {
	t0 := time.Now()
	r := rand.New(rand.NewSource(1))
	m := make(map[int]float64)
	xs := make([]float64, 0, 200_000)
	for i := 0; i < 200_000; i++ {
		v := r.Float64()
		m[r.Intn(1<<20)] += v
		xs = append(xs, v)
	}
	sort.Float64s(xs)
	for k, v := range m {
		calibSink += float64(k) * v
	}
	calibSink += xs[len(xs)/2]
	return time.Since(t0).Seconds()
}

// calibrate times the kernel n times.
func (b *bench) calibrate(n int) {
	for i := 0; i < n; i++ {
		b.calib = append(b.calib, calibKernel())
	}
}

// speedScale is the factor the run's time figures are multiplied by:
// calibRef over the kernel's median time, below 1 while the host runs
// slow.
func (b *bench) speedScale() (float64, error) {
	if len(b.calib) == 0 {
		return 0, fmt.Errorf("workload %s took no calibration samples", b.workload)
	}
	return calibRef / median(b.calib), nil
}

// timeScaled reports whether an end-to-end metric is a time, which the
// host-speed scale applies to.
func timeScaled(d metricDef) bool { return d.Unit == "s" || d.Unit == "ms" }

package main

import (
	"math"

	vb "github.com/vbcloud/vb"
)

// The benchmark cannot call core.Scheduler.Place, mip.Solve or the LP
// directly: they run inside the engines' Advance. Their figures come from
// the counters and timing histograms the program already exports through
// a live obs registry (or the daemon's /snapshot), read only in the
// traced run.

// histSum returns a timing histogram's total seconds and observation
// count.
func histSum(s vb.MetricsSnapshot, name string) (float64, float64) {
	h, ok := s.Histograms[name]
	if !ok {
		return 0, 0
	}
	return h.Sum, float64(h.Count)
}

// solverLayers sets the lp, mip and core metrics from a registry
// snapshot, divided by units (the number of workload units the snapshot
// covers). It returns core.place_s so callers can subtract it from the
// enclosing sim time.
func (b *bench) solverLayers(s vb.MetricsSnapshot, units float64) (placeS float64) {
	c := s.Counters
	solveS, solves := histSum(s, "mip.solve")
	placeS, _ = histSum(s, "scheduler.place")
	b.set("lp.pivots", c["lp.pivots"]/units)
	b.set("lp.refactors", c["lp.refactor.count"]/units)
	b.set("lp.pivots_per_solve", ratio(c["lp.pivots"], solves))
	b.set("mip.solves", solves/units)
	b.set("mip.solve_s", solveS/units)
	b.set("mip.nodes", c["mip.nodes"]/units)
	hits, misses := c["mip.warmstart.hits"], c["mip.warmstart.misses"]
	b.set("mip.warm_hit_ratio", ratio(hits, hits+misses))
	b.set("core.placements", c["scheduler.placements"]/units)
	b.set("core.place_s", placeS/units)
	b.set("core.self_s", (placeS-solveS)/units)
	b.set("core.fallbacks", c["scheduler.fallback.count"]/units)
	return placeS / units
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// checkAttribution is the traced run's consistency check: the self times
// of the blocking layers must add up to the untraced wall time, within
// the tracing overhead plus a margin for benchmark glue that no layer
// owns.
func (b *bench) checkAttribution(blockingS, tracedWallS, untracedWallS float64) {
	overhead := tracedWallS/untracedWallS - 1
	b.set("bench.trace_overhead", overhead)
	b.set("bench.attributed_share", blockingS/tracedWallS)
	gap := blockingS/untracedWallS - 1
	tol := math.Abs(overhead) + 0.10
	b.attempt(math.Abs(gap) <= tol,
		"%s: blocking-layer self time %.4fs vs untraced wall %.4fs: gap %.3f beyond tolerance %.3f",
		b.workload, blockingS, untracedWallS, gap, tol)
}

// setupLayers reports the input-generation layers from the setup spans.
func (b *bench) setupLayers(dur map[string]float64, units float64) {
	b.set("energy.generate_s", dur["energy.generate"]/units)
	b.set("forecast.generate_s", dur["forecast.generate"]/units)
	b.set("workload.generate_s", dur["workload.generate"]/units)
}

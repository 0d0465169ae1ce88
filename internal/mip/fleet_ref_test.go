package mip

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/vbcloud/vb/internal/lp"
)

// fleetProblemRef is FleetProblem as it stood before rows went sparse: one
// n-wide dense row per constraint, filled by scanning every cohort slot
// per (site, step), then converted with lp.DenseRow. It is the oracle
// TestFleetProblemMatchesReference holds the slab builder to.
func fleetProblemRef(cfg FleetConfig) Problem {
	rng := rand.New(rand.NewSource(cfg.Seed))
	steps := cfg.Steps
	if steps <= 0 {
		steps = 4
	}
	cohortSize := cfg.CohortSize
	if cohortSize <= 0 {
		cohortSize = 200
	}
	cand := cfg.Candidates
	if cand <= 0 {
		cand = 3
	}
	cohorts := cfg.Apps / cohortSize
	if cohorts < 8 {
		cohorts = 8
	}
	if cand > cfg.Sites {
		cand = cfg.Sites
	}

	// Binary indicators: a sampled subset of sites carries an explicit
	// commissioning decision (enough binaries for real branching without
	// the tree itself dominating the benchmark).
	nBin := 12
	if nBin > cfg.Sites {
		nBin = cfg.Sites
	}

	nCont := cohorts * cand * steps
	n := nCont + nBin
	p := Problem{
		Problem: lp.Problem{
			NumVars:   n,
			Objective: make([]float64, n),
			Lower:     make([]float64, n),
			Upper:     make([]float64, n),
		},
		Integer: make([]bool, n),
	}

	// Candidate sites per cohort: a deterministic stride sample so load
	// spreads across the whole fleet.
	candSite := make([]int, cohorts*cand)
	for c := 0; c < cohorts; c++ {
		for k := 0; k < cand; k++ {
			candSite[c*cand+k] = (c*7 + k*k + k) % cfg.Sites
		}
	}
	// Which binary (if any) governs each site. Sites 0..nBin-1 carry the
	// explicit commissioning decision; the rest are always-on.
	siteBin := func(s int) int {
		if s < nBin {
			return s
		}
		return -1
	}

	varOf := func(c, k, t int) int { return (c*cand+k)*steps + t }
	for c := 0; c < cohorts; c++ {
		for k := 0; k < cand; k++ {
			// Serving cost varies by site (transmission distance, efficiency).
			base := 1 + rng.Float64()*2
			for t := 0; t < steps; t++ {
				j := varOf(c, k, t)
				p.Objective[j] = base * (1 + 0.1*math.Sin(float64(t)))
				p.Upper[j] = math.Inf(1)
			}
		}
	}
	for b := 0; b < nBin; b++ {
		j := nCont + b
		p.Objective[j] = 40 + rng.Float64()*20 // commissioning cost
		p.Upper[j] = 1
		p.Integer[j] = true
	}

	// Demand per cohort-step (cores).
	demand := make([]float64, cohorts*steps)
	for c := 0; c < cohorts; c++ {
		base := float64(cohortSize) * (0.4 + 0.4*rng.Float64())
		for t := 0; t < steps; t++ {
			demand[c*steps+t] = base * (0.8 + 0.2*math.Sin(float64(c+t)))
		}
	}
	// Renewable capacity per site-step: a fraction of the demand that could
	// be routed to the site. Each cohort has `cand` candidates each able to
	// carry ~60% of the local load, so the fleet is always feasible but no
	// single site can absorb its whole neighborhood — the LP must split.
	routable := make([]float64, cfg.Sites*steps)
	for ci := 0; ci < cohorts; ci++ {
		for k := 0; k < cand; k++ {
			s := candSite[ci*cand+k]
			for t := 0; t < steps; t++ {
				routable[s*steps+t] += demand[ci*steps+t]
			}
		}
	}

	// Capacity rows: for each (site, step), sum of allocations there <= cap
	// (and for governed sites, <= cap * indicator).
	for s := 0; s < cfg.Sites; s++ {
		capScale := 0.55 + 0.25*rng.Float64()
		for t := 0; t < steps; t++ {
			co := make([]float64, n)
			touched := false
			for ci := 0; ci < cohorts; ci++ {
				for k := 0; k < cand; k++ {
					if candSite[ci*cand+k] == s {
						co[varOf(ci, k, t)] = 1
						touched = true
					}
				}
			}
			if !touched {
				continue
			}
			siteCap := routable[s*steps+t] * capScale * (0.9 + 0.1*math.Sin(float64(s+t)))
			rhs := siteCap
			if b := siteBin(s); b >= 0 {
				co[nCont+b] = -siteCap
				rhs = 0
			}
			p.Constraints = append(p.Constraints, lp.DenseRow(co, lp.LE, rhs))
		}
	}
	// Demand rows: for each (cohort, step), allocations across candidates
	// must meet the cohort demand.
	for ci := 0; ci < cohorts; ci++ {
		for t := 0; t < steps; t++ {
			co := make([]float64, n)
			for k := 0; k < cand; k++ {
				co[varOf(ci, k, t)] = 1
			}
			p.Constraints = append(p.Constraints, lp.DenseRow(co, lp.GE, demand[ci*steps+t]))
		}
	}
	return p
}

// TestFleetProblemMatchesReference requires the slab-built fleet model to
// compile to the same lp.Instance bytes as the dense oracle, across fleet
// shapes that include sites no cohort can reach, candidate sets that wrap
// onto the same site, and zero-capacity indicator rows.
func TestFleetProblemMatchesReference(t *testing.T) {
	for _, cfg := range []FleetConfig{
		{Sites: 1, Apps: 100, Seed: 1},
		{Sites: 2, Apps: 1600, Candidates: 3, Seed: 2},
		{Sites: 7, Apps: 3000, Steps: 3, CohortSize: 150, Seed: 3},
		{Sites: 40, Apps: 4000, Steps: 2, Seed: 4},
		{Sites: 200, Apps: 20000, Seed: 5},
	} {
		got, want := FleetProblem(cfg), fleetProblemRef(cfg)
		if err := got.Validate(); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if !reflect.DeepEqual(got.Integer, want.Integer) {
			t.Fatalf("%+v: integrality flags differ", cfg)
		}
		gi, err := lp.NewInstance(got.Problem)
		if err != nil {
			t.Fatal(err)
		}
		wi, err := lp.NewInstance(want.Problem)
		if err != nil {
			t.Fatal(err)
		}
		gb, _ := gi.GobEncode()
		wb, _ := wi.GobEncode()
		if !bytes.Equal(gb, wb) {
			t.Fatalf("%+v: compiled instances differ", cfg)
		}
	}
}

package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/vbcloud/vb/internal/lp"
	"github.com/vbcloud/vb/internal/mip"
)

// buildMIPRef is the site-selection model builder as it stood before rows
// went sparse: every constraint is a map of coefficients expanded into a
// dense numVars-wide row, then converted with lp.DenseRow. It is the
// oracle TestBuildMIPMatchesReference holds buildMIP to.
func (s *Scheduler) buildMIPRef(app AppDemand, nowStep, H int, predCap, stableCap CapacityFn, prev []float64, prevPlan [][]float64) mip.Problem {
	k := s.numSites

	// Variable layout.
	nA := k * H
	nM := k * H
	nO := k * H
	nU := H
	nD := 0
	if prevPlan != nil {
		nD = k * H
	}
	nE := 0
	if s.cfg.peakWeight() > 0 {
		nE = H
	}
	aVar := func(site, tau int) int { return site*H + tau }
	mVar := func(site, tau int) int { return nA + site*H + tau }
	oVar := func(site, tau int) int { return nA + nM + site*H + tau }
	uVar := func(tau int) int { return nA + nM + nO + tau }
	dVar := func(site, tau int) int { return nA + nM + nO + nU + site*H + tau }
	yVar := func(site int) int { return nA + nM + nO + nU + nD + site }
	pVar := nA + nM + nO + nU + nD + k
	eVar := func(tau int) int { return pVar + 1 + tau }
	numVars := pVar + 1 + nE

	obj := make([]float64, numVars)
	memGB := app.MemGBPerCore
	// O1: total migration volume. Later moves are discounted slightly so
	// that when the optimum is indifferent about *when* to move (the cost
	// of a move is the same at any step before a predicted dip), the plan
	// procrastinates: by the time the move is due, forecasts have
	// sharpened and false alarms have evaporated. Without this tie-break
	// the simplex picks arbitrary early moves that the next re-plan
	// reverses, churning traffic.
	const delayDiscount = 0.5
	for site := 0; site < k; site++ {
		for tau := 0; tau < H; tau++ {
			w := 1 + delayDiscount*float64(H-1-tau)/float64(H)
			obj[mVar(site, tau)] = memGB * w
		}
	}
	// Instability preference: placing above the predicted *stable* level
	// is allowed but mildly discouraged per step, steering apps onto sites
	// whose power is predicted to hold ("place VMs on sites which are
	// predicted to have stable power in the future") without forcing moves
	// whenever a forecast wiggles.
	const overWeight = 0.15
	for site := 0; site < k; site++ {
		for tau := 0; tau < H; tau++ {
			obj[oVar(site, tau)] = overWeight * memGB
		}
	}
	// Shortfall penalty: far larger than any plausible migration cost,
	// scaled by the demand's SLO-class pause weight so a RealTime-heavy
	// app's unplaced cores cost more than a Batch app's. Legacy demands
	// weigh exactly 1, leaving the objective bit-identical.
	shortfallPenalty := 1000 * memGB * float64(H) * app.PauseWeight()
	for tau := 0; tau < H; tau++ {
		obj[uVar(tau)] = shortfallPenalty
	}
	// O2: peak traffic (P is in GB).
	obj[pVar] = s.cfg.peakWeight()
	// O2 smoothing: e[tau] >= (step traffic) - (horizon mean traffic)
	// carries a small per-GB cost, so among plans with equal total cost and
	// equal peak the optimum spreads moves over time instead of bunching
	// them — the paper's "spreading out migrations over time and reducing
	// burstiness" is an explicit preference, not an accident of which
	// alternate optimal vertex the simplex happens to return. The weight
	// must beat the delayDiscount slope (≈ memGB·0.5/H per step) over
	// horizon-scale distances so spreading a move across the window is
	// worth it, yet stay below a real move's cost (1 per GB): adding a
	// move raises the horizon mean by Δ/H and can recoup at most ~Δ/2 of
	// excess, so smoothing can never justify extra migration volume.
	const smoothWeight = 0.2
	for tau := 0; tau < nE; tau++ {
		obj[eVar(tau)] = smoothWeight
	}
	// Plan-stability penalty: deviating from the previous plan costs a
	// fraction of a real move, so re-plans only restructure when the
	// predicted savings are material.
	const devWeight = 0.05
	if prevPlan != nil {
		for site := 0; site < k; site++ {
			for tau := 0; tau < H; tau++ {
				obj[dVar(site, tau)] = devWeight * memGB
			}
		}
	}

	var cons []lp.Constraint
	row := func(pairs map[int]float64, sense lp.Sense, rhs float64) {
		coeffs := make([]float64, numVars)
		for j, v := range pairs {
			coeffs[j] = v
		}
		cons = append(cons, lp.DenseRow(coeffs, sense, rhs))
	}
	// Singleton rows (hard capacity, binary bounds) become native variable
	// bounds: the LP shrinks and branching on y tightens a bound in place.
	// Lower bounds stay at the default zero.
	upper := make([]float64, numVars)
	for j := range upper {
		upper[j] = math.Inf(1)
	}

	demand := app.StableCores
	// Hard feasibility applies only within the execution window (the next
	// day, where forecasts are sharp and the plan actually runs before the
	// next refresh). Beyond it, predicted capacity acts as a soft
	// preference: a far-out predicted dip steers placement but cannot
	// force a phantom move that the next forecast refresh would cancel.
	hardSteps := int(24 * time.Hour / s.cfg.PlanStep)
	if hardSteps < 1 {
		hardSteps = 1
	}
	for tau := 0; tau < H; tau++ {
		// Demand: sum_s a + u = D (stable cores only).
		pairs := map[int]float64{uVar(tau): 1}
		for site := 0; site < k; site++ {
			pairs[aVar(site, tau)] = 1
		}
		row(pairs, lp.EQ, demand)
	}
	for site := 0; site < k; site++ {
		for tau := 0; tau < H; tau++ {
			free := predCap(site, nowStep+tau) - s.committed[site][nowStep+tau]
			if free < 0 {
				free = 0
			}
			freeStable := stableCap(site, nowStep+tau) - s.committed[site][nowStep+tau]
			if freeStable < 0 {
				freeStable = 0
			}
			if tau < hardSteps {
				// Hard capacity at the plain forecast.
				upper[aVar(site, tau)] = free
			}
			// Soft preference: a - o <= stable level.
			row(map[int]float64{aVar(site, tau): 1, oVar(site, tau): -1}, lp.LE, freeStable)
			// Linking: a <= D * y.
			row(map[int]float64{aVar(site, tau): 1, yVar(site): -demand}, lp.LE, 0)
			// Migration definition: m >= a_tau - a_{tau-1}.
			if tau == 0 {
				if prev != nil {
					row(map[int]float64{mVar(site, 0): 1, aVar(site, 0): -1}, lp.GE, -prev[site])
				}
				// First placement: tau 0 moves are free (no constraint ties
				// m down; m = 0 at optimum since it only costs).
			} else {
				row(map[int]float64{mVar(site, tau): 1, aVar(site, tau): -1, aVar(site, tau-1): 1}, lp.GE, 0)
			}
		}
		// Binary bound.
		upper[yVar(site)] = 1
		// Deviation from the previous plan: d >= |a - prevPlan|.
		if prevPlan != nil {
			for tau := 0; tau < H; tau++ {
				old := prevPlan[site][nowStep+tau]
				row(map[int]float64{dVar(site, tau): 1, aVar(site, tau): -1}, lp.GE, -old)
				row(map[int]float64{dVar(site, tau): 1, aVar(site, tau): 1}, lp.GE, old)
			}
		}
	}
	// Site count bound.
	pairs := map[int]float64{}
	for site := 0; site < k; site++ {
		pairs[yVar(site)] = 1
	}
	row(pairs, lp.LE, float64(s.cfg.maxSites()))
	// Peak: this app's step traffic stacked on the fleet-wide planned
	// traffic must fit under P. Coordinating through the migration ledger
	// is what spreads the *aggregate* migration load over time ("MIP-peak
	// migrates VMs preemptively, spreading out migrations over time and
	// reducing burstiness").
	if s.cfg.peakWeight() > 0 {
		meanCommitted := 0.0
		for tau := 0; tau < H; tau++ {
			meanCommitted += s.migCommitted[nowStep+tau]
		}
		meanCommitted /= float64(H)
		for tau := 0; tau < H; tau++ {
			pp := map[int]float64{pVar: -1}
			for site := 0; site < k; site++ {
				pp[mVar(site, tau)] = memGB
			}
			row(pp, lp.LE, -s.migCommitted[nowStep+tau])
			// Smoothing excess: step traffic minus the horizon-mean traffic
			// (both including the fleet-wide committed ledger) must fit
			// under e[tau]:
			//   sum_s mem*m[s,tau] - (1/H) sum_{s,t'} mem*m[s,t'] - e[tau]
			//     <= mean(committed) - committed[tau].
			sm := map[int]float64{eVar(tau): -1}
			for site := 0; site < k; site++ {
				for t2 := 0; t2 < H; t2++ {
					sm[mVar(site, t2)] = -memGB / float64(H)
				}
				sm[mVar(site, tau)] += memGB
			}
			row(sm, lp.LE, meanCommitted-s.migCommitted[nowStep+tau])
		}
	}

	integer := make([]bool, numVars)
	for site := 0; site < k; site++ {
		integer[yVar(site)] = true
	}
	return mip.Problem{
		Problem: lp.Problem{NumVars: numVars, Objective: obj, Constraints: cons, Upper: upper},
		Integer: integer,
	}
}

// TestBuildMIPMatchesReference holds the sparse slab builder to the dense
// oracle: over every MIP policy, with and without a current allocation and
// a previous plan, 1-5 sites and horizons of 1-40 steps, against ledgers
// whose commitments exceed the predicted capacity (negative free, clamped
// to zero), both builders must compile to byte-identical lp.Instance gob
// payloads — the same objective, bounds, senses, right-hand sides and
// constraint matrix — and the same integrality flags.
func TestBuildMIPMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	policies := []Policy{MIP, MIP24h, MIPPeak}
	horizons := []int{1, 2, 3, 24, 40}
	draws := 3
	if testing.Short() {
		horizons, draws = []int{1, 40}, 1
	}
	cases := 0
	for _, pol := range policies {
		for _, withPrev := range []bool{false, true} {
			for _, withPlan := range []bool{false, true} {
				for _, h := range horizons {
					for d := 0; d < draws; d++ {
						H := h
						if d > 0 {
							H = 1 + rng.Intn(40)
						}
						checkBuildMatchesRef(t, rng, pol, 1+rng.Intn(5), H, withPrev, withPlan)
						cases++
					}
				}
			}
		}
	}
	if cases == 0 {
		t.Fatal("no cases ran")
	}
}

func checkBuildMatchesRef(t *testing.T, rng *rand.Rand, pol Policy, k, window int, withPrev, withPlan bool) {
	t.Helper()
	planStep := []time.Duration{time.Hour, 6 * time.Hour}[rng.Intn(2)]
	nowStep := rng.Intn(6)
	steps := nowStep + window + rng.Intn(3)
	s, err := NewScheduler(Config{Policy: pol, PlanStep: planStep, MaxSitesPerApp: 1 + rng.Intn(k)}, k, steps)
	if err != nil {
		t.Fatal(err)
	}
	pred := make([][]float64, k)
	stable := make([][]float64, k)
	for site := 0; site < k; site++ {
		pred[site] = make([]float64, steps)
		stable[site] = make([]float64, steps)
		for t := 0; t < steps; t++ {
			pred[site][t] = 500 + 1000*rng.Float64()
			stable[site][t] = pred[site][t] * rng.Float64()
			// Up to twice the forecast: free goes negative about half
			// the time and the builders clamp it to zero.
			s.committed[site][t] = 2 * pred[site][t] * rng.Float64()
		}
	}
	for t := range s.migCommitted {
		if rng.Intn(2) == 0 {
			s.migCommitted[t] = 100 * rng.Float64()
		}
	}
	predCap := func(site, step int) float64 { return pred[site][step] }
	stableCap := func(site, step int) float64 { return stable[site][step] }
	mem := []float64{0, 0.5, 4, 3.7}[rng.Intn(4)]
	app := AppDemand{ID: 1, Cores: 900, StableCores: 1 + 600*rng.Float64(), MemGBPerCore: mem}
	var prev []float64
	if withPrev {
		prev = make([]float64, k)
		for site := range prev {
			prev[site] = 300 * rng.Float64()
		}
	}
	var prevPlan [][]float64
	if withPlan {
		prevPlan = make([][]float64, k)
		for site := range prevPlan {
			prevPlan[site] = make([]float64, steps)
			for t := range prevPlan[site] {
				prevPlan[site][t] = 300 * rng.Float64()
			}
		}
	}
	H := s.mipHorizon(nowStep, nowStep+window)
	got := s.buildMIP(app, nowStep, H, predCap, stableCap, prev, prevPlan)
	want := s.buildMIPRef(app, nowStep, H, predCap, stableCap, prev, prevPlan)
	desc := func() string {
		return fmt.Sprintf("%v k=%d H=%d prev=%t plan=%t", pol, k, H, withPrev, withPlan)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: sparse model invalid: %v", desc(), err)
	}
	if !reflect.DeepEqual(got.Integer, want.Integer) {
		t.Fatalf("%s: integrality flags differ", desc())
	}
	gi, err := lp.NewInstance(got.Problem)
	if err != nil {
		t.Fatal(err)
	}
	wi, err := lp.NewInstance(want.Problem)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := gi.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	wb, err := wi.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb, wb) {
		t.Fatalf("%s: compiled instances differ (%d vs %d gob bytes)", desc(), len(gb), len(wb))
	}
	// A warm instance compiled from either builder accepts the other's
	// model as a structural match.
	if !gi.Refresh(want.Problem) || !wi.Refresh(got.Problem) {
		t.Fatalf("%s: Refresh rejects the other builder's model", desc())
	}
}

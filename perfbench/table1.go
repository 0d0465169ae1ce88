package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	vb "github.com/vbcloud/vb"
)

// table1: the paper's Table 1 — the European site trio, 6 h plan steps,
// all four policies on the fluid engine. The solver stack (core → mip →
// lp) does nearly all the work; the cluster simulator does none.

const (
	// table1Seeds is the run's fixed input set. The timed phase makes
	// passes over all of them, at least table1MinPasses and as many more
	// as the measuring time fits. The traced run covers the first
	// table1Traced.
	//
	// Seeds differ widely in how much they ask of the solver, and the
	// slowest days come from the few busiest seeds, so the step tail
	// needs many seeds per run. The paper's 7-day span costs about 0.8 s
	// a seed (2-vCPU Xeon guest): 24 seeds fill a 20 s pass, and with
	// them step_p90_ms spread by 0.18-0.24 (IQR over median) across run
	// seeds, tracking each run's seed set, not the host. Cost grows about
	// twofold per simulated day (4 days 0.1 s, 5 days 0.2 s, 6 days
	// 0.4 s), so a run takes table1Days days and four times the seeds.
	// The paper's 7-day Table 1 still runs at DefaultSeed, against the
	// golden.
	table1Seeds     = 96
	table1MinPasses = 1
	table1MaxPasses = 8
	table1Traced    = 24
	table1Days      = 5
)

// table1Start anchors the experiment in early May, as vb's Table 1 does.
var table1Start = time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)

// table1Timeline is one seed's generated inputs.
type table1Timeline struct {
	seed      uint64
	in        vb.SimInput
	apps, vms int
	// report is the first Table 1 report rendered for this seed; every
	// later one must equal it.
	report string
}

// buildTable1Input generates the trio's power, day-ahead forecasts and
// the application stream exactly as vb.Table1PolicyComparison does.
func buildTable1Input(seed uint64, sl *spanLog, parent int) (*table1Timeline, error) {
	trio := vb.EuropeanTrio()
	id := sl.begin("energy.generate", parent)
	fine, err := vb.NewWorld(seed).Generate(trio, table1Start, time.Hour, table1Days*24)
	if err != nil {
		return nil, err
	}
	actual := make([]vb.Series, len(trio))
	for i := range trio {
		if actual[i], err = fine[i].WindowMin(vb.Table1PlanStep); err != nil {
			return nil, err
		}
	}
	sl.end(id)

	id = sl.begin("forecast.generate", parent)
	fc := vb.NewForecaster(seed)
	bundles := make([]*vb.Bundle, len(trio))
	for i := range trio {
		if bundles[i], err = fc.NewBundle(actual[i], trio[i].Source, trio[i].Name); err != nil {
			return nil, err
		}
		if err := bundles[i].UseFixedHorizon(vb.HorizonDay); err != nil {
			return nil, err
		}
	}
	sl.end(id)

	id = sl.begin("workload.generate", parent)
	apps, err := vb.GenerateApps(vb.AppConfig{
		Seed:           seed + 1,
		Start:          table1Start,
		Duration:       table1Days * 24 * time.Hour,
		MeanAppsPerDay: 6,
		MeanVMsPerApp:  60,
		StableFraction: 0.7,
	})
	if err != nil {
		return nil, err
	}
	tl := &table1Timeline{seed: seed, apps: len(apps)}
	demands := make([]vb.AppDemand, 0, len(apps))
	for _, a := range apps {
		d, err := vb.DemandFromApp(a)
		if err != nil {
			return nil, err
		}
		demands = append(demands, d)
		tl.vms += len(a.VMs)
	}
	sl.end(id)
	tl.in = vb.SimInput{
		Actual:     actual,
		Bundles:    bundles,
		TotalCores: float64(vb.DefaultClusterConfig().TotalCores()),
		Apps:       demands,
	}
	return tl, nil
}

// table1Unit runs the four policies over one timeline on the stepping
// engine, feeding arrivals in Start order as vb.RunPolicy does, and
// renders the Table 1 report. The latency of each simulated day — the
// four policies' Advance calls for that day's plan steps, summed — is
// appended to stepMS. A day is one planning cycle: each holds its daily
// replan, and together with its quiet steps it makes a unit whose
// percentiles depend far less on which seeds a run draws than those of
// single plan steps, which mix Greedy no-ops of a few microseconds with
// MIP replans of a tenth of a second.
func table1Unit(tl *table1Timeline, reg *vb.MetricsRegistry, sl *spanLog, parent int, stepMS *[]float64) (string, error) {
	in := tl.in
	in.Obs = reg
	apps := append([]vb.AppDemand(nil), in.Apps...)
	sort.Slice(apps, func(i, j int) bool { return apps[i].Start.Before(apps[j].Start) })
	res := vb.Table1Result{Transfers: map[vb.Policy]vb.Series{}, Group: vb.EuropeanTrio()}
	perDay := int(24 * time.Hour / vb.Table1PlanStep)
	steps := make([]float64, (tl.in.Actual[0].Len()+perDay-1)/perDay)
	for _, pol := range vb.AllPolicies() {
		cfg := vb.SchedulerConfig{
			Policy:         pol,
			PlanStep:       vb.Table1PlanStep,
			UtilTarget:     0.7,
			MaxSitesPerApp: 3,
			Obs:            reg,
		}
		reg.SetLabel("policy", pol.String())
		sid := sl.begin("sim.run", parent)
		eng, err := vb.NewSimEngine(cfg, in)
		if err != nil {
			return "", err
		}
		next := 0
		for !eng.Done() {
			now := eng.Now()
			var arrivals []vb.AppDemand
			for next < len(apps) && !apps[next].Start.After(now) {
				arrivals = append(arrivals, apps[next])
				next++
			}
			t0 := time.Now()
			_, err := eng.Advance(arrivals)
			t1 := time.Now()
			if err != nil {
				return "", fmt.Errorf("policy %v: %w", pol, err)
			}
			steps[(eng.Step()-1)/perDay] += t1.Sub(t0).Seconds() * 1e3
			sl.add("sim.advance", sid, t0, t1)
		}
		r := eng.Result()
		total, p99, peak, std, err := r.Summary()
		if err != nil {
			return "", err
		}
		res.Rows = append(res.Rows, vb.Table1Row{
			Policy: pol, Total: total, P99: p99, Peak: peak, Std: std,
			ZeroFraction:          r.ZeroFraction(),
			PausedStableCoreSteps: r.PausedStableCoreSteps,
			MeanAvailability:      r.MeanAvailability(),
		})
		res.Transfers[pol] = r.Transfer
		sl.end(sid)
	}
	*stepMS = append(*stepMS, steps...)
	return res.Report(), nil
}

// checkTable1Golden compares a DefaultSeed report with the committed
// golden, byte for byte.
func (b *bench) checkTable1Golden(seed uint64, report string) {
	if seed != vb.DefaultSeed {
		return
	}
	want, err := os.ReadFile(filepath.Join(b.root, "testdata", "table1_seed.golden"))
	b.attempt(err == nil && report == string(want), "table1: DefaultSeed report differs from testdata/table1_seed.golden (err %v)", err)
}

func runTable1(b *bench) error {
	seeds := timelineSeeds(b.seed, table1Seeds)
	tls := make([]*table1Timeline, len(seeds))
	err := b.measureSetup(fmt.Sprintf("%d Table 1 inputs", len(seeds)), func(sl *spanLog, parent int) (err error) {
		for i, s := range seeds {
			if tls[i], err = buildTable1Input(s, sl, parent); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	if b.trace {
		return traceTable1(b, tls[:table1Traced])
	}
	wall := make([][]float64, len(tls))
	alloc := make([][]float64, len(tls))
	var stepPasses [][]float64
	n, err := b.passes(time.Now(), table1MinPasses, table1MaxPasses, func(int) error {
		var steps []float64
		for i, tl := range tls {
			var rep string
			w, a, err := b.timeUnit(1, func() (err error) {
				rep, err = table1Unit(tl, nil, nil, 0, &steps)
				return err
			})
			if !b.attempt(err == nil, "table1 seed %d: %v", tl.seed, err) {
				return fmt.Errorf("table1 seed %d: %w", tl.seed, err)
			}
			wall[i] = append(wall[i], w)
			alloc[i] = append(alloc[i], a)
			b.checkSame(fmt.Sprintf("table1 seed %d", tl.seed), &tl.report, rep)
		}
		stepPasses = append(stepPasses, steps)
		return nil
	})
	if err != nil {
		return err
	}
	stepMS := stepMedians(stepPasses)
	b.set("wall_s", meanOfMedians(wall))
	b.set("alloc_mb", meanOfMedians(alloc))
	b.set("peak_rss_mb", peakRSSMB())
	b.setPct("step_p50_ms", percentile(stepMS, 0.50))
	b.setPct("step_p90_ms", percentile(stepMS, 0.90))
	b.noteTail("step", stepMS)
	b.notes["wall_s"] = fmt.Sprintf("one Table 1 comparison, mean over %d seeds of the median of %d passes", len(tls), n)
	b.notes["step_p50_ms"] += fmt.Sprintf("; each step's median over %d passes", n)

	b.checkTable1Reference(tls[0])
	return nil
}

// checkTable1Reference runs the first seed again through vb's own entry
// point, which must reproduce the stepped report byte for byte, and at
// DefaultSeed runs the paper's 7-day Table 1 against the golden.
func (b *bench) checkTable1Reference(first *table1Timeline) {
	ref, err := vb.Table1PolicyComparison(vb.Table1Setup{Seed: first.seed, Days: table1Days})
	if b.attempt(err == nil, "table1 seed %d: vb.Table1PolicyComparison: %v", first.seed, err) {
		b.checkSame(fmt.Sprintf("table1 seed %d via vb.Table1PolicyComparison", first.seed), &first.report, ref.Report())
	}
	if first.seed != vb.DefaultSeed {
		return
	}
	paper, err := vb.Table1PolicyComparison(vb.Table1Setup{Seed: first.seed})
	if b.attempt(err == nil, "table1 seed %d: 7-day vb.Table1PolicyComparison: %v", first.seed, err) {
		b.checkTable1Golden(first.seed, paper.Report())
	}
}

// traceTable1 repeats every timeline once untraced and once with spans
// and a live registry, and reports the solver-stack layers.
func traceTable1(b *bench, tls []*table1Timeline) error {
	var discard []float64
	reports := make([]string, len(tls))
	t0 := time.Now()
	for i, tl := range tls {
		rep, err := table1Unit(tl, nil, nil, 0, &discard)
		if err != nil {
			return err
		}
		reports[i] = rep
	}
	untraced := time.Since(t0).Seconds()
	for i, tl := range tls {
		b.checkSame(fmt.Sprintf("table1 seed %d", tl.seed), &tl.report, reports[i])
	}

	reg := vb.NewMetrics()
	root := b.spans.begin("table1", 0)
	t0 = time.Now()
	for _, tl := range tls {
		uid := b.spans.begin("table1.unit", root)
		rep, err := table1Unit(tl, reg, b.spans, uid, &discard)
		b.spans.end(uid)
		if !b.attempt(err == nil, "table1 seed %d: %v", tl.seed, err) {
			continue
		}
		b.checkSame(fmt.Sprintf("table1 seed %d traced", tl.seed), &tl.report, rep)
	}
	traced := time.Since(t0).Seconds()
	b.spans.end(root)
	b.checkTable1Reference(tls[0])

	units := float64(len(tls))
	spans := b.spans.snapshot()
	dur, _ := totalTimes(spans)
	b.setupLayers(dur, table1Seeds) // set-up built every seed
	var apps, vms float64
	for _, tl := range tls {
		apps += float64(tl.apps)
		vms += float64(tl.vms)
	}
	b.set("workload.apps", apps/units)
	b.set("workload.vms", vms/units)
	snap := reg.Snapshot()
	placeS := b.solverLayers(snap, units)
	simS := dur["sim.run"] / units
	b.set("sim.run_s", simS)
	b.set("sim.self_s", simS-placeS)
	b.set("sim.replans", snap.Counters["sim.replans"]/units)
	b.set("sim.admissions", snap.Counters["sim.admissions"]/units)
	b.set("bench.solver_share", placeS*units/traced)
	b.set("bench.cluster_share", 0)
	b.checkAttribution(dur["sim.run"], traced, untraced)
	return nil
}

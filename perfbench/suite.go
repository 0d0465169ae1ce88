package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	vb "github.com/vbcloud/vb"
)

// paper-suite: every figure and table of the evaluation, as
// vb.RunAllExperiments (and `vbsim -all`) regenerates them. The only
// workload where energy, forecast and stats carry real weight, and where
// the experiment fan-out matters.

const (
	// suiteSeeds is the run's fixed input set. The timed phase makes
	// passes of vb.RunAllExperiments over all of them, at least
	// suiteMinPasses and as many more as the measuring time fits. Seeds
	// differ in how much their Table 1 style experiments allocate, and
	// step_p90_ms is the slowest suite but one, so the set is as large as
	// one pass within the measuring time allows: with 7 seeds the p90 was
	// the slowest suite and spread by up to 0.19 (IQR over median) across
	// runs. The set-up figure builds the inputs of suiteSetupSeeds seeds.
	suiteSeeds      = 10
	suiteMinPasses  = 1
	suiteMaxPasses  = 8
	suiteSetupSeeds = 8
)

// suiteTask is one entry of vb.RunAllExperiments' task list. run writes
// its result into out; reg is non-nil only in the traced pass, where the
// tasks that accept a registry are observed.
type suiteTask struct {
	name string
	run  func(seed uint64, out *vb.AllExperimentsResult, reg *vb.MetricsRegistry) error
}

// suiteTasks mirrors vb.RunAllExperiments' list, in its order. The
// traced run calls it serially to time each task; its report must equal
// vb.RunAllExperiments'.
var suiteTasks = []suiteTask{
	{"fig2a", func(s uint64, o *vb.AllExperimentsResult, _ *vb.MetricsRegistry) (err error) {
		o.Fig2a, err = vb.Fig2aPowerVariation(s)
		return
	}},
	{"fig2b", func(s uint64, o *vb.AllExperimentsResult, _ *vb.MetricsRegistry) (err error) {
		o.Fig2b, err = vb.Fig2bPowerCDF(s)
		return
	}},
	{"fig3", func(s uint64, o *vb.AllExperimentsResult, _ *vb.MetricsRegistry) (err error) {
		o.Fig3, err = vb.Fig3Complementary(s)
		return
	}},
	{"pairs", func(s uint64, o *vb.AllExperimentsResult, _ *vb.MetricsRegistry) (err error) {
		o.Pairs, err = vb.CovPairImprovement(s)
		return
	}},
	{"fig4_solar", func(s uint64, o *vb.AllExperimentsResult, reg *vb.MetricsRegistry) (err error) {
		o.Fig4Solar, err = vb.Fig4MigrationObs(s, vb.Solar, 7, reg)
		return
	}},
	{"fig4_wind", func(s uint64, o *vb.AllExperimentsResult, reg *vb.MetricsRegistry) (err error) {
		o.Fig4Wind, err = vb.Fig4MigrationObs(s, vb.Wind, 7, reg)
		return
	}},
	{"fig5", func(s uint64, o *vb.AllExperimentsResult, _ *vb.MetricsRegistry) (err error) {
		o.Fig5, err = vb.Fig5ForecastAccuracy(s)
		return
	}},
	{"table1", func(s uint64, o *vb.AllExperimentsResult, reg *vb.MetricsRegistry) (err error) {
		o.Table1, err = vb.Table1PolicyComparison(vb.Table1Setup{Seed: s, Obs: reg})
		return
	}},
	{"slo_class", func(s uint64, o *vb.AllExperimentsResult, reg *vb.MetricsRegistry) (err error) {
		o.SLOClass, err = vb.SLOClassComparison(vb.SLOClassSetup{Seed: s, Obs: reg})
		return
	}},
	{"pipeline", func(s uint64, o *vb.AllExperimentsResult, reg *vb.MetricsRegistry) (err error) {
		o.Pipeline, err = vb.FullPipelineObs(s, reg)
		return
	}},
	{"wan_share", func(_ uint64, o *vb.AllExperimentsResult, _ *vb.MetricsRegistry) (err error) {
		o.WANShare, err = vb.WANShare()
		return
	}},
	{"wan_busy", func(s uint64, o *vb.AllExperimentsResult, reg *vb.MetricsRegistry) error {
		if reg == nil {
			var err error
			o.WANBusy, err = vb.WANBusyFraction(s)
			return err
		}
		// vb.WANBusyFraction, spelled out so its 28-day Fig 4 run can be
		// observed; the report check proves the two agree.
		fig4, err := vb.Fig4MigrationObs(s, vb.Wind, 28, reg)
		if err != nil {
			return err
		}
		total, err := vb.AddSeries(fig4.Run.OutGB, fig4.Run.InGB)
		if err != nil {
			return err
		}
		frac, err := vb.WANBusy(total, 200)
		o.WANBusy = vb.WANBusyResult{LinkGbps: 200, BusyFraction: frac}
		return err
	}},
	{"econ", func(s uint64, o *vb.AllExperimentsResult, _ *vb.MetricsRegistry) (err error) {
		o.Econ, err = vb.EconSavings(s)
		return
	}},
	{"outage", func(s uint64, o *vb.AllExperimentsResult, _ *vb.MetricsRegistry) (err error) {
		o.Outage, err = vb.AvailabilityUnderOutage(s)
		return
	}},
}

// suiteWorkers is the parallelism handed to vb.RunAllExperiments: the
// machine's, capped at 4 like a laptop run of `vbsim -all`.
func suiteWorkers() int { return min(runtime.GOMAXPROCS(0), 4) }

// suiteSerial runs every task of the list one after another, with a span
// per task.
func suiteSerial(seed uint64, reg *vb.MetricsRegistry, sl *spanLog, parent int) (vb.AllExperimentsResult, error) {
	var out vb.AllExperimentsResult
	for _, t := range suiteTasks {
		t0 := time.Now()
		err := t.run(seed, &out, reg)
		if err != nil {
			return out, fmt.Errorf("%s: %w", t.name, err)
		}
		sl.add("experiment."+t.name, parent, t0, time.Now())
	}
	return out, nil
}

// suiteSetup generates the suite's two headline inputs — the Table 1
// trio and the Fig 4 sites with their workloads — standalone. The
// experiments build their inputs internally, so this times the same
// generation code outside the fan-out.
func suiteSetup(seed uint64, sl *spanLog, parent int) error {
	if _, err := buildTable1Input(seed, sl, parent); err != nil {
		return err
	}
	_, err := buildFig4Input(seed, sl, parent)
	return err
}

// checkSuiteTable1 compares the suite's Table 1 block with the golden at
// DefaultSeed.
func (b *bench) checkSuiteTable1(seed uint64, res vb.AllExperimentsResult) {
	report := res.Report()
	t1 := res.Table1.Report()
	b.attempt(strings.Contains(report, t1), "paper-suite seed %d: report lacks its Table 1 block", seed)
	b.checkTable1Golden(seed, t1)
}

func runPaperSuite(b *bench) error {
	err := b.measureSetup(fmt.Sprintf("the Table 1 and Fig 4 inputs of %d seeds", suiteSetupSeeds), func(sl *spanLog, parent int) error {
		for _, s := range timelineSeeds(b.seed, suiteSetupSeeds) {
			if err := suiteSetup(s, sl, parent); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	seeds := timelineSeeds(b.seed, suiteSeeds)
	workers := suiteWorkers()
	if b.trace {
		return tracePaperSuite(b, seeds[0], workers)
	}

	wall := make([][]float64, len(seeds))
	alloc := make([][]float64, len(seeds))
	reports := make([]string, len(seeds))
	var first vb.AllExperimentsResult
	n, err := b.passes(time.Now(), suiteMinPasses, suiteMaxPasses, func(p int) error {
		for i, s := range seeds {
			var res vb.AllExperimentsResult
			w, a, err := b.timeUnit(3, func() (err error) {
				res, err = vb.RunAllExperiments(s, workers)
				return err
			})
			if !b.attempt(err == nil, "paper-suite seed %d: %v", s, err) {
				return fmt.Errorf("paper-suite seed %d: %w", s, err)
			}
			wall[i] = append(wall[i], w)
			alloc[i] = append(alloc[i], a)
			b.checkSame(fmt.Sprintf("paper-suite seed %d", s), &reports[i], res.Report())
			if p == 0 && i == 0 {
				first = res
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	// A suite is the researcher's step: its latency is each seed's median
	// over the passes.
	suiteMS := make([]float64, len(wall))
	for i, w := range wall {
		suiteMS[i] = median(w) * 1e3
	}
	b.set("wall_s", meanOfMedians(wall))
	b.set("alloc_mb", meanOfMedians(alloc))
	b.set("peak_rss_mb", peakRSSMB())
	b.setPct("step_p50_ms", percentile(suiteMS, 0.50))
	b.setPct("step_p90_ms", percentile(suiteMS, 0.90))
	b.notes["wall_s"] = fmt.Sprintf("one vb.RunAllExperiments at %d workers, mean over %d seeds of the median of %d passes", workers, len(seeds), n)
	b.notes["step_p50_ms"] += "; a step is one whole suite, one seed's vb.RunAllExperiments"

	b.checkSuiteTable1(seeds[0], first)
	// A second run of the first seed must reproduce its report byte for
	// byte.
	ref, err := vb.RunAllExperiments(seeds[0], workers)
	if b.attempt(err == nil, "paper-suite seed %d: vb.RunAllExperiments: %v", seeds[0], err) {
		b.checkSame(fmt.Sprintf("paper-suite seed %d, second run", seeds[0]), &reports[0], ref.Report())
	}
	return nil
}

// tracePaperSuite times vb.RunAllExperiments and the serial task list
// untraced, then runs the list again with a span per experiment and a
// live registry.
func tracePaperSuite(b *bench, seed uint64, workers int) error {
	t0 := time.Now()
	ref, err := vb.RunAllExperiments(seed, workers)
	if err != nil {
		return err
	}
	parallel := time.Since(t0).Seconds()
	t0 = time.Now()
	plain, err := suiteSerial(seed, nil, nil, 0)
	if err != nil {
		return err
	}
	serial := time.Since(t0).Seconds()
	b.attempt(plain.Report() == ref.Report(), "paper-suite seed %d: serial task list report differs from vb.RunAllExperiments", seed)

	reg := vb.NewMetrics()
	root := b.spans.begin("paper-suite.serial", 0)
	traced, err := suiteSerial(seed, reg, b.spans, root)
	b.spans.end(root)
	if !b.attempt(err == nil, "paper-suite seed %d traced: %v", seed, err) {
		return nil
	}
	b.attempt(traced.Report() == plain.Report(), "paper-suite seed %d: traced report differs from untraced", seed)
	b.checkSuiteTable1(seed, traced)

	dur, _ := totalTimes(b.spans.snapshot())
	tracedWall := dur["paper-suite.serial"]
	var tasksS float64
	for _, t := range suiteTasks {
		d := dur["experiment."+t.name]
		b.set("experiment."+t.name+"_s", d)
		tasksS += d
	}
	b.set("workload.generate_s", dur["workload.generate"]/suiteSetupSeeds)
	b.set("par.speedup", serial/parallel)
	b.notes["par.speedup"] = fmt.Sprintf("serial %.3fs / %d workers %.3fs", serial, workers, parallel)

	snap := reg.Snapshot()
	energyS, _ := histSum(snap, "energy.generate")
	forecastS, _ := histSum(snap, "forecast.generate")
	b.set("energy.generate_s", energyS)
	b.set("forecast.generate_s", forecastS)
	placeS := b.solverLayers(snap, 1)
	simS, _ := histSum(snap, "sim.run")
	clusterS, _ := histSum(snap, "cluster.run")
	b.set("sim.run_s", simS)
	b.set("sim.self_s", simS-placeS)
	b.set("sim.replans", snap.Counters["sim.replans"])
	b.set("sim.admissions", snap.Counters["sim.admissions"])
	b.set("cluster.busy_s", clusterS)
	b.set("bench.solver_share", placeS/tracedWall)
	b.set("bench.cluster_share", clusterS/tracedWall)
	b.notes["energy.generate_s"] = "from the tasks that take a registry (Fig 4, Table 1, SLO classes, pipeline, WAN busy)"
	b.checkAttribution(tasksS, tracedWall, serial)
	return nil
}

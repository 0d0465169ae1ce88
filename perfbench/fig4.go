package main

import (
	"fmt"
	"time"

	vb "github.com/vbcloud/vb"
)

// cluster-fig4: the paper's Fig 4 — one 700-server site tracking a solar
// and a wind power trace, with an Azure-like VM stream. cluster.Site.Step
// does nearly all the work; the solver does none.

const (
	// fig4Timelines is the run's fixed input set. The timed phase makes
	// passes over all of them, at least fig4MinPasses and as many more as
	// the measuring time fits.
	fig4Timelines = 16
	fig4MinPasses = 2
	fig4MaxPasses = 16
	fig4Days      = 7
	fig4Warmup    = 96
	fig4Checked   = 4
)

// fig4Start is the Fig 4 power window's start, as in vb's experiments.
var fig4Start = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

// fig4Sites are Fig 4's solar and wind sites.
func fig4Sites() []vb.SiteConfig {
	capMW := vb.EuropeanTrio()[0].CapacityMW
	return []vb.SiteConfig{
		{Name: "BE-solar", Source: vb.Solar, Latitude: 50.8, Longitude: 4.4, CapacityMW: capMW},
		{Name: "BE-wind", Source: vb.Wind, Latitude: 51.2, Longitude: 2.9, CapacityMW: capMW},
	}
}

// fig4Timeline is one seed's power traces (solar, wind) and VM stream.
type fig4Timeline struct {
	seed    uint64
	power   []vb.Series
	vms     []vb.VM
	digests []string
}

func buildFig4Input(seed uint64, sl *spanLog, parent int) (*fig4Timeline, error) {
	tl := &fig4Timeline{seed: seed}
	for _, site := range fig4Sites() {
		id := sl.begin("energy.generate", parent)
		p, err := vb.NewWorld(seed).Generate([]vb.SiteConfig{site}, fig4Start, 15*time.Minute, fig4Days*96)
		sl.end(id)
		if err != nil {
			return nil, err
		}
		tl.power = append(tl.power, p[0])
	}
	id := sl.begin("workload.generate", parent)
	vms, err := vb.GenerateVMs(vb.WorkloadConfig{
		Seed:                seed,
		Start:               fig4Start.Add(-24 * time.Hour),
		Duration:            (fig4Days + 1) * 24 * time.Hour,
		MeanArrivalsPerHour: 60,
		StableFraction:      0.7,
		LongRunningFraction: 0.3,
		MedianLifetime:      6 * time.Hour,
	})
	sl.end(id)
	if err != nil {
		return nil, err
	}
	tl.vms = vms
	tl.digests = make([]string, len(tl.power))
	return tl, nil
}

// siteRun is the outcome of stepping one site through a power trace.
type siteRun struct {
	out, in                   []float64
	launched, evicted, runMax int
}

// stepSite drives a fresh site with vb.RunCluster's arrival bucketing and
// warm-up, but calls Site.Step itself so each step can be timed. The
// post-warm-up out/in series must equal RunCluster's bit for bit.
func stepSite(power vb.Series, vms []vb.VM, sl *spanLog, parent int, stepMS *[]float64) (siteRun, error) {
	site, err := vb.NewCluster(vb.DefaultClusterConfig())
	if err != nil {
		return siteRun{}, err
	}
	warmStart := power.Start.Add(-time.Duration(fig4Warmup) * power.Step)
	total := fig4Warmup + power.Len()
	buckets := make([][]vb.VM, total)
	for _, vm := range vms {
		d := vm.Arrival.Sub(warmStart)
		if d < 0 {
			continue
		}
		if i := int(d / power.Step); i < total {
			buckets[i] = append(buckets[i], vm)
		}
	}
	for i := range buckets {
		sortVMsByID(buckets[i])
	}
	run := siteRun{out: make([]float64, power.Len()), in: make([]float64, power.Len())}
	for i := 0; i < total; i++ {
		now := warmStart.Add(time.Duration(i) * power.Step)
		frac := 1.0
		if i >= fig4Warmup {
			frac = power.Values[i-fig4Warmup]
		}
		t0 := time.Now()
		st := site.Step(now, frac, buckets[i])
		t1 := time.Now()
		*stepMS = append(*stepMS, t1.Sub(t0).Seconds()*1e3)
		sl.add("cluster.step", parent, t0, t1)
		if i >= fig4Warmup {
			run.out[i-fig4Warmup] = st.OutGB
			run.in[i-fig4Warmup] = st.InGB
		}
		run.launched += st.Launched
		run.evicted += st.Evicted
		run.runMax = max(run.runMax, site.Running())
	}
	return run, nil
}

// fig4Unit steps both sites of one timeline.
func fig4Unit(tl *fig4Timeline, sl *spanLog, parent int, stepMS *[]float64) ([]siteRun, error) {
	runs := make([]siteRun, len(tl.power))
	for s, p := range tl.power {
		id := sl.begin("cluster.run", parent)
		r, err := stepSite(p, tl.vms, sl, id, stepMS)
		sl.end(id)
		if err != nil {
			return nil, err
		}
		runs[s] = r
	}
	return runs, nil
}

// checkFig4Runs compares repetitions with each other and, once per
// timeline, with vb.RunCluster.
func (b *bench) checkFig4Runs(tl *fig4Timeline, runs []siteRun, reference bool) {
	for s, r := range runs {
		what := fmt.Sprintf("cluster-fig4 seed %d %s", tl.seed, fig4Sites()[s].Name)
		b.checkSame(what, &tl.digests[s], digestFloats(r.out, r.in))
		if !reference {
			continue
		}
		ref, err := vb.RunCluster(vb.DefaultClusterConfig(), tl.power[s], tl.vms, fig4Warmup)
		b.attempt(err == nil && sameFloats(ref.OutGB.Values, r.out) && sameFloats(ref.InGB.Values, r.in),
			"%s: Site.Step-driven series differ from vb.RunCluster (err %v)", what, err)
	}
}

func runClusterFig4(b *bench) error {
	seeds := timelineSeeds(b.seed, fig4Timelines)
	tls := make([]*fig4Timeline, len(seeds))
	err := b.measureSetup(fmt.Sprintf("%d Fig 4 inputs", len(seeds)), func(sl *spanLog, parent int) (err error) {
		for i, s := range seeds {
			if tls[i], err = buildFig4Input(s, sl, parent); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	if b.trace {
		return traceClusterFig4(b, tls)
	}
	wall := make([][]float64, len(tls))
	alloc := make([][]float64, len(tls))
	last := make([][]siteRun, len(tls))
	var stepPasses [][]float64
	n, err := b.passes(time.Now(), fig4MinPasses, fig4MaxPasses, func(int) error {
		var steps []float64
		for i, tl := range tls {
			var runs []siteRun
			w, a, err := b.timeUnit(1, func() (err error) {
				runs, err = fig4Unit(tl, nil, 0, &steps)
				return err
			})
			if !b.attempt(err == nil, "cluster-fig4 seed %d: %v", tl.seed, err) {
				return fmt.Errorf("cluster-fig4 seed %d: %w", tl.seed, err)
			}
			wall[i] = append(wall[i], w)
			alloc[i] = append(alloc[i], a)
			b.checkFig4Runs(tl, runs, false)
			last[i] = runs
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
	b.notes["wall_s"] = fmt.Sprintf("one solar + one wind site run, mean over %d seeds of the median of %d passes", len(tls), n)
	b.notes["step_p50_ms"] += fmt.Sprintf("; each step's median over %d passes", n)
	// vb.RunCluster reference runs for the first few seeds; the traced
	// run checks every seed.
	for i, tl := range tls[:fig4Checked] {
		if last[i] != nil {
			b.checkFig4Runs(tl, last[i], true)
		}
	}
	return nil
}

// traceClusterFig4 repeats every timeline untraced and then with a span
// per Site.Step, and reports the cluster layer.
func traceClusterFig4(b *bench, tls []*fig4Timeline) error {
	var discard []float64
	t0 := time.Now()
	for _, tl := range tls {
		if _, err := fig4Unit(tl, nil, 0, &discard); err != nil {
			return err
		}
	}
	untraced := time.Since(t0).Seconds()

	root := b.spans.begin("cluster-fig4", 0)
	traced := make([][]siteRun, len(tls))
	for i, tl := range tls {
		uid := b.spans.begin("cluster-fig4.unit", root)
		runs, err := fig4Unit(tl, b.spans, uid, &discard)
		b.spans.end(uid)
		if b.attempt(err == nil, "cluster-fig4 seed %d: %v", tl.seed, err) {
			traced[i] = runs
		}
	}
	b.spans.end(root)
	var launched, evicted, runMax int
	for i, runs := range traced {
		if runs == nil {
			continue
		}
		b.checkFig4Runs(tls[i], runs, true)
		for _, r := range runs {
			launched += r.launched
			evicted += r.evicted
			runMax = max(runMax, r.runMax)
		}
	}

	units := float64(len(tls))
	spans := b.spans.snapshot()
	dur, _ := totalTimes(spans)
	b.setupLayers(dur, units)
	var vms float64
	var stepUS []float64
	for _, tl := range tls {
		vms += float64(len(tl.vms))
	}
	for _, s := range spans {
		if s.Name == "cluster.step" {
			stepUS = append(stepUS, s.dur()*1e6)
		}
	}
	unitWall := dur["cluster-fig4.unit"]
	b.set("workload.vms", vms/units)
	b.set("cluster.step_us.p50", quantile(stepUS, 0.50))
	b.set("cluster.step_us.p99", quantile(stepUS, 0.99))
	b.set("cluster.busy_s", dur["cluster.step"]/units)
	b.set("cluster.launched", float64(launched)/units)
	b.set("cluster.evicted", float64(evicted)/units)
	b.set("cluster.running_max", float64(runMax))
	b.set("bench.cluster_share", dur["cluster.step"]/unitWall)
	b.set("bench.solver_share", 0)
	b.checkAttribution(dur["cluster.step"], unitWall, untraced)
	return nil
}

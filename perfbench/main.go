// Command perfbench is the repository benchmark. It runs one named
// workload against the simulator from outside the program — the batch
// workloads through the public Go API, serve-bursty through the built
// vbserve binary over HTTP — checks every output for correctness, and
// prints its metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it through run.sh, which builds the binaries first:
//
//	bash perfbench/run.sh --workload table1 --seed 7 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// workload is repeated with spans and live obs registries, and the
// metrics are the per-layer set. See README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names a reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them in the untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"step_p50_ms", "ms"},
	{"step_p90_ms", "ms"},
}

// perLayer are the traced run's metrics, one block per module. A layer a
// workload does not reach reports 0.
var perLayer = []metricDef{
	{"energy.generate_s", "s"},
	{"forecast.generate_s", "s"},
	{"workload.generate_s", "s"},
	{"workload.apps", "count"},
	{"workload.vms", "count"},
	{"lp.pivots", "count"},
	{"lp.refactors", "count"},
	{"lp.pivots_per_solve", "ratio"},
	{"mip.solves", "count"},
	{"mip.solve_s", "s"},
	{"mip.nodes", "count"},
	{"mip.warm_hit_ratio", "ratio"},
	{"core.placements", "count"},
	{"core.place_s", "s"},
	{"core.self_s", "s"},
	{"core.fallbacks", "count"},
	{"sim.run_s", "s"},
	{"sim.self_s", "s"},
	{"sim.replans", "count"},
	{"sim.admissions", "count"},
	{"sim.vm.moves", "count"},
	{"sim.vm.failed", "count"},
	{"sim.vm.replans", "count"},
	{"cluster.step_us.p50", "us"},
	{"cluster.step_us.p99", "us"},
	{"cluster.busy_s", "s"},
	{"cluster.launched", "count"},
	{"cluster.evicted", "count"},
	{"cluster.running_max", "count"},
	{"serve.report_bytes", "bytes"},
	{"serve.snapshot_ms", "ms"},
	{"serve.snapshot_bytes", "bytes"},
	{"serve.queue_max", "count"},
	{"serve.non2xx", "count"},
	{"serve.arrive_p50_ms", "ms"},
	{"serve.arrive_p95_ms", "ms"},
	{"serve.read_p50_ms", "ms"},
	{"serve.read_p99_ms", "ms"},
	{"gen.late_ms.p99", "ms"},
	{"experiment.fig2a_s", "s"},
	{"experiment.fig2b_s", "s"},
	{"experiment.fig3_s", "s"},
	{"experiment.pairs_s", "s"},
	{"experiment.fig4_solar_s", "s"},
	{"experiment.fig4_wind_s", "s"},
	{"experiment.fig5_s", "s"},
	{"experiment.table1_s", "s"},
	{"experiment.slo_class_s", "s"},
	{"experiment.pipeline_s", "s"},
	{"experiment.wan_share_s", "s"},
	{"experiment.wan_busy_s", "s"},
	{"experiment.econ_s", "s"},
	{"experiment.outage_s", "s"},
	{"par.speedup", "ratio"},
	{"bench.trace_overhead", "ratio"},
	{"bench.solver_share", "ratio"},
	{"bench.cluster_share", "ratio"},
	{"bench.attributed_share", "ratio"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*bench) error{
	"table1":       runTable1,
	"cluster-fig4": runClusterFig4,
	"serve-bursty": runServeBursty,
	"paper-suite":  runPaperSuite,
}

// hardDeadline bounds one benchmark process, which must end within
// 180 s: past it, children are killed and the run fails.
const hardDeadline = 170 * time.Second

// bench is one benchmark run's state: its arguments, the failure ledger
// and the metrics collected so far.
type bench struct {
	root     string
	commit   string
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	started  time.Time

	attempted, failed int
	metrics           map[string]float64
	// notes holds sample counts and context printed beside the metrics.
	notes map[string]string
	// spans is nil in the untraced run.
	spans *spanLog
	// calib holds the calibration kernel's times (see calib.go).
	calib []float64
}

func newBench() *bench {
	return &bench{started: time.Now(), metrics: map[string]float64{}, notes: map[string]string{}}
}

// attempt counts one operation; a false ok counts it as failed and logs
// why to stderr.
func (b *bench) attempt(ok bool, format string, args ...any) bool {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
	}
	return ok
}

// set records a metric value.
func (b *bench) set(name string, v float64) { b.metrics[name] = v }

// setPct records a percentile metric and notes its sample accounting.
func (b *bench) setPct(name string, p pct) {
	b.metrics[name] = p.Value
	note := fmt.Sprintf("p%g of n=%d, %d beyond", p.Q*100, p.N, p.Beyond)
	if !p.enough() {
		note += " (fewer than 10 beyond)"
	}
	b.notes[name] = note
}

// tailCandidates are the percentiles a latency tail may be reported at.
var tailCandidates = []float64{0.5, 0.9, 0.95, 0.99, 0.999}

// noteTail notes the highest percentile of xs (ms) that still has ten
// samples beyond it.
func (b *bench) noteTail(label string, xs []float64) {
	q, ok := tailPercentile(len(xs), tailCandidates)
	if !ok {
		b.notes[label+" tail"] = fmt.Sprintf("n=%d: too few samples for a percentile", len(xs))
		return
	}
	p := percentile(xs, q)
	b.notes[label+" tail"] = fmt.Sprintf("p%g = %.6g ms of n=%d, %d beyond", q*100, p.Value, p.N, p.Beyond)
}

// A run builds all its inputs at least setupReps times and for at least
// setupWindow, so the builds span more than a passing slow spell of the
// host; setup_s is the median build. Every build makes the same inputs,
// so the count does not change what the median measures.
const (
	setupReps   = 15
	setupWindow = time.Second
)

// measureSetup builds the run's inputs repeatedly, each time from a
// freshly collected heap, and records the median build as setup_s. Only
// the second build is traced, so the setup spans cover exactly one build
// and miss the first one's cold start.
func (b *bench) measureSetup(what string, build func(sl *spanLog, parent int) error) error {
	var times []float64
	start := time.Now()
	for r := 0; r < setupReps || time.Since(start) < setupWindow; r++ {
		var sl *spanLog
		if r == 1 {
			sl = b.spans
		}
		runtime.GC()
		root := sl.begin("setup", 0)
		t0 := time.Now()
		err := build(sl, root)
		times = append(times, time.Since(t0).Seconds())
		sl.end(root)
		if err != nil {
			return err
		}
	}
	b.set("setup_s", median(times))
	b.notes["setup_s"] = fmt.Sprintf("median of %d builds of %s", len(times), what)
	return nil
}

// passes runs fn(0), fn(1), ..., each a full pass over the run's fixed
// set of inputs, at least min and at most max times. It stops once the
// measuring budget, counted from t0, no longer fits another pass of
// average length, and returns how many passes ran. Only repetitions of
// the same inputs are bounded by time, so every figure covers the same
// inputs whatever the host's speed.
func (b *bench) passes(t0 time.Time, min, max int, fn func(p int) error) (int, error) {
	start := time.Now()
	for p := 0; p < max; p++ {
		if p >= min && b.timeLeft(t0) < time.Since(start).Seconds()/float64(p) {
			return p, nil
		}
		if err := fn(p); err != nil {
			return p, err
		}
	}
	return max, nil
}

// timeUnit times the calibration kernel kernels times, then runs one
// timed unit from a freshly collected heap, so that no unit pays for
// collecting the garbage of the one before, and returns its wall seconds
// and allocated MB.
func (b *bench) timeUnit(kernels int, fn func() error) (wallS, allocMB float64, err error) {
	b.calibrate(kernels)
	runtime.GC()
	a0, t0 := totalAllocMB(), time.Now()
	err = fn()
	return time.Since(t0).Seconds(), totalAllocMB() - a0, err
}

// checkSame counts one repetition check: every repetition of one input
// must produce the same output.
func (b *bench) checkSame(what string, first *string, got string) {
	if *first == "" {
		*first = got
		b.attempt(got != "", "%s: empty output", what)
		return
	}
	b.attempt(got == *first, "%s: output differs between repetitions (digest %s vs %s)", what, digest(got), digest(*first))
}

// timeLeft is the measuring budget left from a phase that started at t0.
func (b *bench) timeLeft(t0 time.Time) float64 {
	return b.seconds - time.Since(t0).Seconds()
}

// outDir is where spans, request logs and daemon logs are written.
func (b *bench) outDir() string { return filepath.Join(b.root, ".bench_build", "perfbench") }

// timelineSeeds derives n input seeds from the run seed. The first is the
// run seed itself, so the DefaultSeed goldens apply to it.
func timelineSeeds(seed uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = seed + uint64(i)*7919
		if out[i] == 0 {
			out[i] = 1 // the API reads 0 as DefaultSeed
		}
	}
	return out
}

// peakRSSMB is this process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// totalAllocMB is the process's cumulative heap allocation.
func totalAllocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// env is the stamp printed with every result: cross-machine wall times
// drift, so figures are only comparable A/B on one machine.
type env struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	Source     string  `json:"source_sha256"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
}

func (b *bench) env() env {
	return env{
		Workload: b.workload, Seed: b.seed, Seconds: b.seconds, Trace: b.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: cpuModel(), Commit: b.commit, Source: sourceDigest(b.root), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
	}
}

// sourceDigest hashes the checkout's Go sources and module files, which
// identify the build where no git commit is available.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// noteSelfTimes adds each span name's self time and count to the traced
// run's table: where the benchmark-visible time went, layer by layer.
func (b *bench) noteSelfTimes() {
	spans := b.spans.snapshot()
	self := selfTimes(spans)
	_, count := totalTimes(spans)
	for name, s := range self {
		b.notes["self "+name] = fmt.Sprintf("%.4f s self over %d spans", s, count[name])
	}
}

// result is the final stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// failedShare is failed operations over attempted ones.
func failedShare(attempted, failed int) float64 {
	if attempted == 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// finish assembles the result for the mode's metric set. A metric the
// workload did not set is an error in the untraced run (every end-to-end
// metric must be measured) and 0 in the traced run (the layer was not
// reached). The untraced run's time figures are scaled to the reference
// host speed.
func (b *bench) finish() (result, error) {
	defs := endToEnd
	scale := 1.0
	if b.trace {
		defs = perLayer
	} else {
		var err error
		if scale, err = b.speedScale(); err != nil {
			return result{}, err
		}
		b.notes["host speed"] = fmt.Sprintf("calibration kernel median %.4f s of n=%d (reference %.3f s); time figures scaled by %.4f",
			median(b.calib), len(b.calib), calibRef, scale)
	}
	res := result{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := b.metrics[d.Name]
		if !ok {
			if !b.trace {
				return res, fmt.Errorf("workload %s did not measure %s", b.workload, d.Name)
			}
			v = 0
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		if !b.trace && timeScaled(d) {
			b.notes[d.Name] = strings.TrimPrefix(fmt.Sprintf("%s; unscaled %.6g", b.notes[d.Name], v), "; ")
			v *= scale
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	res.Correct = b.failed == 0 && b.attempted > 0
	return res, nil
}

// printTable writes the human-readable metric table before the result
// line.
func (b *bench) printTable(res result) {
	e := b.env()
	stamp, _ := json.Marshal(e)
	fmt.Printf("env %s\n", stamp)
	defs := endToEnd
	if b.trace {
		defs = perLayer
	}
	for _, d := range defs {
		line := fmt.Sprintf("  %-26s %14.6g %-6s", d.Name, res.Metrics[d.Name].Value, d.Unit)
		if n := b.notes[d.Name]; n != "" {
			line += "  " + n
		}
		fmt.Println(line)
	}
	var extra []string
	for k := range b.notes {
		if _, isMetric := res.Metrics[k]; !isMetric {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		fmt.Printf("  %-26s %s\n", k, b.notes[k])
	}
	fmt.Printf("  %-26s %14.6g %-6s  %d of %d operations failed\n", "failed_share",
		failedShare(b.attempted, b.failed), "ratio", b.failed, b.attempted)
}

func main() {
	b := newBench()
	var seed int64
	flag.StringVar(&b.workload, "workload", "", "workload: table1, cluster-fig4, serve-bursty, paper-suite")
	flag.Int64Var(&seed, "seed", 1, "input seed (all inputs are generated from it)")
	flag.Float64Var(&b.seconds, "seconds", 20, "measuring time of the timed phase")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&b.root, "root", ".", "repository checkout root")
	flag.StringVar(&b.commit, "commit", "none", "commit the binaries were built from")
	flag.Parse()
	run, ok := workloads[b.workload]
	if !ok || b.seconds <= 0 || seed < 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seed %d, seconds %v, trace %d)\n",
			b.workload, seed, b.seconds, *traceFlag)
		os.Exit(2)
	}
	b.seed = uint64(seed)
	b.trace = *traceFlag == 1
	if err := os.MkdirAll(b.outDir(), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if b.trace {
		b.spans = newSpanLog(fmt.Sprintf("%s-seed%d-%d", b.workload, b.seed, b.started.UnixNano()))
	}
	watchdog := time.AfterFunc(hardDeadline, func() {
		killChildren()
		fmt.Fprintln(os.Stderr, "perfbench: deadline exceeded")
		os.Exit(3)
	})
	err := run(b)
	watchdog.Stop()
	killChildren()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if b.spans != nil {
		b.noteSelfTimes()
		path := filepath.Join(b.outDir(), fmt.Sprintf("spans-%s-seed%d.jsonl", b.workload, b.seed))
		if err := b.spans.writeJSONL(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			os.Exit(1)
		}
	}
	res, err := b.finish()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b.printTable(res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

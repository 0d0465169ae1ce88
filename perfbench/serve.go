package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	vb "github.com/vbcloud/vb"
)

// serve-bursty: the operator's path. The built vbserve daemon runs the
// MIP policy on loopback; one client process drives it with the bundled
// bursty cohort mix on an open-loop, time-compressed schedule, while it
// polls /v1/state, checkpoints with GET /v1/snapshot and scrapes
// /metrics. Each daemon runs one short timeline; a run chains several so
// every percentile rests on enough samples.

const (
	// A run chains serveTimelines seeds' timelines of serveDays each.
	// The step tail is the daily replans and the admissions, which solve
	// a MIP per app over its remaining life clipped to the timeline, so
	// their cost follows how many apps a seed keeps alive and how much of
	// the timeline is left. Over five days the day-1 and day-2 replans
	// cost 40-100 ms and the later ones 15-50 ms, the p90 fell in the gap
	// between the two groups, and with 8 or 16 timelines it spread by
	// 0.13-0.30 (IQR over median) from run to run. Over three days the
	// replans and busy admissions overlap in cost (6-31 ms), the p90 falls
	// inside them, and 24 timelines fit a 20 s run at a 69 ms compressed
	// plan step, longer than any replan, so none queues the next step.
	serveTimelines  = 24
	serveDays       = 3
	serveAppsPerDay = 20
	// The read mix is an assumption, not a measurement: no trace of a
	// vbserve client exists. It is one dashboard polling /v1/state
	// serveStatePolls times per plan step and a checkpointer taking
	// GET /v1/snapshot every serveSnapshotGap plan steps, both counted in
	// simulated steps so the load per step does not depend on how far
	// the schedule is compressed.
	serveStatePolls  = 8
	serveSnapshotGap = 4
	servePolicy      = "MIP"
	// serveKernels calibration kernels run before every daemon start.
	serveKernels = 1
)

// servePlanStep and serveStart are vbserve's plan step and timeline
// anchor.
var (
	servePlanStep = 6 * time.Hour
	serveStart    = time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
)

// serveTimeline is one seed's generated arrivals, already encoded as the
// /v1/arrive request bodies.
type serveTimeline struct {
	seed   uint64
	bodies [][]byte
	// starts are the arrivals' simulated start times.
	starts    []time.Time
	apps, vms int
}

// buildServeWorkload substitutes the seed, window and rate into the
// bundled cohort spec and converts the generated apps into arrivals. Apps
// starting after the last plan boundary are dropped, as vbserve -genlog
// does.
func buildServeWorkload(root string, seed uint64, sl *spanLog, parent int) (*serveTimeline, error) {
	id := sl.begin("workload.generate", parent)
	defer sl.end(id)
	spec, err := vb.LoadTraceSpec(filepath.Join(root, "examples", "cohorts", "bursty.json"))
	if err != nil {
		return nil, err
	}
	spec.Seed = seed
	spec.Start = serveStart
	spec.DurationHours = serveDays * 24
	spec.AppsPerDay = serveAppsPerDay
	apps, err := vb.GenerateCohortApps(*spec)
	if err != nil {
		return nil, err
	}
	last := serveStart.Add(time.Duration(serveDays*4-1) * servePlanStep)
	var arrivals []vb.AppArrival
	for _, a := range apps {
		if a.TotalCores() == 0 || a.Arrival.After(last) {
			continue
		}
		d, err := vb.DemandFromApp(a)
		if err != nil {
			return nil, err
		}
		arrivals = append(arrivals, vb.AppArrival{Demand: d, VMs: a.VMs})
	}
	sort.SliceStable(arrivals, func(i, j int) bool { return arrivals[i].Demand.Start.Before(arrivals[j].Demand.Start) })
	tl := &serveTimeline{seed: seed, apps: len(arrivals)}
	for _, a := range arrivals {
		body, err := json.Marshal(a)
		if err != nil {
			return nil, err
		}
		tl.bodies = append(tl.bodies, body)
		tl.starts = append(tl.starts, a.Demand.Start)
		tl.vms += len(a.VMs)
	}
	return tl, nil
}

// ---- child processes ----

// child is a process the benchmark started; done closes once it has
// been waited for.
type child struct {
	cmd  *exec.Cmd
	done chan struct{}
}

var children struct {
	sync.Mutex
	live map[*child]bool
}

// startChild starts cmd and tracks it until it has exited.
func startChild(cmd *exec.Cmd) (*child, error) {
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, done: make(chan struct{})}
	children.Lock()
	if children.live == nil {
		children.live = map[*child]bool{}
	}
	children.live[c] = true
	children.Unlock()
	go func() {
		cmd.Wait() //nolint:errcheck // the exit status is read from ProcessState
		children.Lock()
		delete(children.live, c)
		children.Unlock()
		close(c.done)
	}()
	return c, nil
}

// stop asks the child to drain (SIGTERM), kills it if it has not exited
// within grace, and waits for it.
func (c *child) stop(grace time.Duration) {
	c.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // it may have exited
	select {
	case <-c.done:
	case <-time.After(grace):
		c.cmd.Process.Kill() //nolint:errcheck
		<-c.done
	}
}

// killChildren kills every tracked child and waits for each.
func killChildren() {
	children.Lock()
	var live []*child
	for c := range children.live {
		live = append(live, c)
	}
	children.Unlock()
	for _, c := range live {
		c.cmd.Process.Kill() //nolint:errcheck
	}
	for _, c := range live {
		select {
		case <-c.done:
		case <-time.After(5 * time.Second):
		}
	}
}

// cpuSeconds is an exited child's user plus system CPU time.
func (c *child) cpuSeconds() float64 {
	if ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	return 0
}

// maxRSSMB is an exited child's peak resident set size.
func (c *child) maxRSSMB() float64 {
	if ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// ---- the daemon ----

type daemon struct {
	*child
	base   string
	client *http.Client
	logf   *os.File
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

func (b *bench) vbserveBin() string { return filepath.Join(b.root, ".bench_build", "bin", "vbserve") }

// daemonArgs are the scenario flags every vbserve invocation of one
// timeline shares, serving or replaying.
func daemonArgs(seed uint64) []string {
	return []string{"-seed", strconv.FormatUint(seed, 10), "-days", strconv.Itoa(serveDays), "-policy", servePolicy}
}

// startDaemon launches vbserve and waits for /readyz; the returned
// duration is the set-up time from process start to ready. The free port
// can be taken between probing and binding, so a failed start is retried.
func (b *bench) startDaemon(seed uint64, idx int) (d *daemon, setupS float64, err error) {
	for try := 0; try < 3; try++ {
		if d, setupS, err = b.startDaemonOnce(seed, idx); err == nil {
			return d, setupS, nil
		}
	}
	return nil, 0, err
}

func (b *bench) startDaemonOnce(seed uint64, idx int) (*daemon, float64, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(filepath.Join(b.outDir(), fmt.Sprintf("vbserve-%d.log", idx)))
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(b.vbserveBin(), append(daemonArgs(seed), "-listen", addr)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	t0 := time.Now()
	c, err := startChild(cmd)
	if err != nil {
		logf.Close()
		return nil, 0, err
	}
	conns := runtime.NumCPU()
	d := &daemon{child: c, base: "http://" + addr, logf: logf, client: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}}
	for {
		resp, err := d.client.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0).Seconds(), nil
			}
		}
		select {
		case <-c.done:
			logf.Close()
			return nil, 0, fmt.Errorf("vbserve exited before ready (see %s)", logf.Name())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(t0) > 60*time.Second {
			d.close()
			return nil, 0, fmt.Errorf("vbserve not ready after 60s")
		}
	}
}

func (d *daemon) close() {
	d.stop(10 * time.Second)
	d.client.CloseIdleConnections()
	d.logf.Close()
}

// call sends one request and reads the whole body.
func (d *daemon) call(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

var totalAllocRe = regexp.MustCompile(`(?m)^# TotalAlloc = (\d+)$`)

// totalAllocMB reads the daemon's cumulative heap allocation from its
// pprof heap page.
func (d *daemon) totalAllocMB() (float64, error) {
	code, body, err := d.call(http.MethodGet, "/debug/pprof/heap?debug=1", nil)
	if err != nil || code != http.StatusOK {
		return 0, fmt.Errorf("heap profile: status %d, %v", code, err)
	}
	m := totalAllocRe.FindSubmatch(body)
	if m == nil {
		return 0, fmt.Errorf("heap profile has no TotalAlloc line")
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	return v / (1 << 20), err
}

// ---- the open-loop schedule ----

// reqKind names a request route for accounting.
type reqKind int

const (
	kArrive reqKind = iota
	kStep
	kState
	kSnapshot
	kMetrics
)

var kindNames = []string{"arrive", "step", "state", "snapshot", "metrics"}

// sample is one request's timing: due is when the schedule wanted it
// sent, sent when the generator dispatched it, done when the response
// was read. Latency counts from due.
type sample struct {
	kind            reqKind
	due, sent, done time.Time
	status          int
	bytes           int
	err             error
}

func (s sample) latencyMS() float64 { return s.done.Sub(s.due).Seconds() * 1e3 }
func (s sample) lateMS() float64    { return s.sent.Sub(s.due).Seconds() * 1e3 }
func (s sample) ok() bool           { return s.err == nil && s.status >= 200 && s.status < 300 }

// event is one scheduled request: its due offset from the timeline's
// start, its kind, and its index (arrival number or step number).
type event struct {
	at   time.Duration
	kind reqKind
	idx  int
}

// serveSchedule lays out one timeline: each arrival at its compressed
// start time, each plan step at its boundary, polls /v1/state reads
// evenly spaced within every step, a snapshot between steps every
// serveSnapshotGap steps and one /metrics scrape. It returns the events
// in due order and each arrival's step batch (the first boundary at or
// after its start).
func serveSchedule(starts []time.Time, steps int, interval time.Duration, polls int) ([]event, []int) {
	scale := float64(interval) / float64(servePlanStep)
	var evs []event
	batch := make([]int, len(starts))
	for i, s := range starts {
		off := s.Sub(serveStart)
		evs = append(evs, event{at: time.Duration(float64(off) * scale), kind: kArrive, idx: i})
		batch[i] = max(0, int((off+servePlanStep-1)/servePlanStep))
	}
	for t := 0; t < steps; t++ {
		evs = append(evs, event{at: time.Duration(t) * interval, kind: kStep, idx: t})
		if t%serveSnapshotGap == serveSnapshotGap-1 {
			evs = append(evs, event{at: time.Duration(t)*interval + interval/2, kind: kSnapshot, idx: t})
		}
	}
	evs = append(evs, event{at: time.Duration(steps/2)*interval + interval/4, kind: kMetrics})
	for k := 0; k < steps*polls; k++ {
		evs = append(evs, event{at: time.Duration(k) * interval / time.Duration(polls), kind: kState, idx: k})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	return evs, batch
}

// timelineRun is what one daemon timeline produced.
type timelineRun struct {
	samples   []sample
	decisions []byte
	// log is the request log: per step, its arrivals in start order (the
	// order the daemon reported queueing them), then the step.
	log       []byte
	reports   []vb.VMStepReport
	queueMax  int
	wallS     float64
	cpuS      float64
	allocMB   float64
	rssMB     float64
	setupS    float64
	registry  vb.MetricsSnapshot
	reportLen []int
}

// driveTimeline runs one daemon through its timeline on the open-loop
// schedule. A step is sent at its due time, but only once every arrival
// of its batch has been acknowledged; an arrival of batch t waits for
// step t-1's reply and for the previous arrival's. That keeps each step's
// arrivals exactly those, in the order, the request log records, so the
// decisions replay byte for byte. Every wait counts as latency, since
// requests are timed from when they were due.
func (b *bench) driveTimeline(tl *serveTimeline, d *daemon, interval time.Duration, sl *spanLog, parent int) *timelineRun {
	steps := serveDays * 4
	evs, batch := serveSchedule(tl.starts, steps, interval, serveStatePolls)
	batchAcked := make([]sync.WaitGroup, steps)
	for _, bt := range batch {
		batchAcked[bt].Add(1)
	}
	stepDone := make([]chan struct{}, steps)
	for i := range stepDone {
		stepDone[i] = make(chan struct{})
	}
	queued := make([]int, len(tl.bodies))
	// Arrivals are sent one after another, each once the one before it is
	// acknowledged, so the daemon queues them in start order and every
	// run of a seed makes the same decisions.
	arrived := make([]chan struct{}, len(tl.bodies))
	for i := range arrived {
		arrived[i] = make(chan struct{})
	}
	reports := make([][]byte, steps)

	var mu sync.Mutex
	var samples []sample
	record := func(s sample) {
		mu.Lock()
		samples = append(samples, s)
		mu.Unlock()
		name := "http." + kindNames[s.kind]
		sl.add(name, parent, s.due, s.done)
	}
	do := func(s sample, method, path string, body []byte) (sample, []byte) {
		var data []byte
		s.status, data, s.err = d.call(method, path, body)
		s.done = time.Now()
		s.bytes = len(data)
		return s, data
	}

	var wg sync.WaitGroup
	t0 := time.Now().Add(20 * time.Millisecond)
	for _, ev := range evs {
		due := t0.Add(ev.at)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		s := sample{kind: ev.kind, due: due, sent: time.Now()}
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch ev.kind {
			case kArrive:
				bt := batch[ev.idx]
				if bt > 0 {
					<-stepDone[bt-1]
				}
				if ev.idx > 0 {
					<-arrived[ev.idx-1]
				}
				s, data := do(s, http.MethodPost, "/v1/arrive", tl.bodies[ev.idx])
				var reply struct{ Queued int }
				if s.ok() {
					if err := json.Unmarshal(data, &reply); err != nil {
						s.err = err
					}
				}
				queued[ev.idx] = reply.Queued
				record(s)
				close(arrived[ev.idx])
				batchAcked[bt].Done()
			case kStep:
				batchAcked[ev.idx].Wait()
				if ev.idx > 0 {
					<-stepDone[ev.idx-1]
				}
				s, data := do(s, http.MethodPost, "/v1/step", nil)
				reports[ev.idx] = data
				record(s)
				close(stepDone[ev.idx])
			case kState:
				s, _ := do(s, http.MethodGet, "/v1/state", nil)
				record(s)
			case kSnapshot:
				s, _ := do(s, http.MethodGet, "/v1/snapshot", nil)
				record(s)
			case kMetrics:
				s, _ := do(s, http.MethodGet, "/metrics", nil)
				record(s)
			}
		}()
	}
	wg.Wait()
	code, decisions, err := d.call(http.MethodGet, "/v1/decisions", nil)
	run := &timelineRun{samples: samples, decisions: decisions, wallS: time.Since(t0).Seconds()}
	lines := bytes.Count(decisions, []byte("\n"))
	b.attempt(err == nil && code == http.StatusOK && lines == steps,
		"serve seed %d: GET /v1/decisions: status %d, %d of %d steps, %v", tl.seed, code, lines, steps, err)

	// The request log, checked against the queue positions the daemon
	// reported, and the step reports.
	var log bytes.Buffer
	byBatch := make([][]int, steps)
	for i, bt := range batch {
		byBatch[bt] = append(byBatch[bt], i)
		run.queueMax = max(run.queueMax, queued[i])
	}
	for t := 0; t < steps; t++ {
		for pos, i := range byBatch[t] {
			b.attempt(queued[i] == pos+1, "serve seed %d: arrival %d of step %d queued at %d, want %d",
				tl.seed, i, t, queued[i], pos+1)
			log.WriteString(`{"op":"arrive","arrival":`)
			log.Write(tl.bodies[i])
			log.WriteString("}\n")
		}
		log.WriteString(`{"op":"step"}` + "\n")
		var rep vb.VMStepReport
		if err := json.Unmarshal(reports[t], &rep); err == nil {
			run.reports = append(run.reports, rep)
		}
		run.reportLen = append(run.reportLen, len(reports[t]))
	}
	run.log = log.Bytes()
	return run
}

// serveTimelineRun starts a daemon, drives one timeline and stops it.
func (b *bench) serveTimelineRun(tl *serveTimeline, idx int, interval time.Duration, sl *spanLog, parent int) (*timelineRun, error) {
	d, setupS, err := b.startDaemon(tl.seed, idx)
	if err != nil {
		return nil, err
	}
	run, err := b.measureTimeline(tl, d, interval, sl, parent)
	d.close()
	if err != nil {
		return nil, err
	}
	run.setupS = setupS
	run.rssMB = d.maxRSSMB()
	run.cpuS = d.cpuSeconds()
	return run, nil
}

// measureTimeline drives one timeline and reads the daemon's allocation
// over it and its obs registry.
func (b *bench) measureTimeline(tl *serveTimeline, d *daemon, interval time.Duration, sl *spanLog, parent int) (*timelineRun, error) {
	alloc0, err := d.totalAllocMB()
	if err != nil {
		return nil, err
	}
	run := b.driveTimeline(tl, d, interval, sl, parent)
	alloc1, err := d.totalAllocMB()
	if err != nil {
		return nil, err
	}
	run.allocMB = alloc1 - alloc0
	code, snap, err := d.call(http.MethodGet, "/snapshot", nil)
	if b.attempt(err == nil && code == http.StatusOK, "serve seed %d: GET /snapshot: status %d, %v", tl.seed, code, err) {
		if err := json.Unmarshal(snap, &run.registry); err != nil {
			b.attempt(false, "serve seed %d: decoding /snapshot: %v", tl.seed, err)
		}
	}
	return run, nil
}

// checkReplay replays the recorded request log through `vbserve -replay`
// under the same scenario flags; its decision log must equal the
// daemon's GET /v1/decisions byte for byte.
func (b *bench) checkReplay(tl *serveTimeline, idx int, run *timelineRun) {
	logPath := filepath.Join(b.outDir(), fmt.Sprintf("requests-%d.jsonl", idx))
	outPath := filepath.Join(b.outDir(), fmt.Sprintf("replayed-%d.jsonl", idx))
	if err := os.WriteFile(logPath, run.log, 0o644); err != nil {
		b.attempt(false, "serve seed %d: writing request log: %v", tl.seed, err)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, b.vbserveBin(), append(daemonArgs(tl.seed), "-replay", logPath, "-decisions", outPath)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	c, err := startChild(cmd)
	if err == nil {
		<-c.done
		if !c.cmd.ProcessState.Success() {
			err = fmt.Errorf("%v: %s", c.cmd.ProcessState, bytes.TrimSpace(stderr.Bytes()))
		}
	}
	replayed, rerr := os.ReadFile(outPath)
	b.attempt(err == nil && rerr == nil && len(run.decisions) > 0 && bytes.Equal(replayed, run.decisions),
		"serve seed %d: live decisions (%d bytes) differ from vbserve -replay of the request log (%d bytes; %v %v)",
		tl.seed, len(run.decisions), len(replayed), err, rerr)
}

// serveTally pools the samples of several timelines by route.
type serveTally struct {
	lat     map[reqKind][]float64
	late    []float64
	non2xx  int
	snapMS  []float64
	snapB   []float64
	reportB []float64
}

func tallyServe(b *bench, tls []*serveTimeline, runs []*timelineRun) serveTally {
	t := serveTally{lat: map[reqKind][]float64{}}
	for i, run := range runs {
		for _, s := range run.samples {
			b.attempt(s.ok(), "serve seed %d: %s: status %d, %v", tls[i].seed, kindNames[s.kind], s.status, s.err)
			if s.err == nil && !s.ok() {
				t.non2xx++
			}
			t.lat[s.kind] = append(t.lat[s.kind], s.latencyMS())
			t.late = append(t.late, s.lateMS())
			if s.kind == kSnapshot {
				t.snapMS = append(t.snapMS, s.done.Sub(s.sent).Seconds()*1e3)
				t.snapB = append(t.snapB, float64(s.bytes))
			}
		}
		for _, n := range run.reportLen {
			t.reportB = append(t.reportB, float64(n))
		}
	}
	return t
}

// reads pools /v1/state and /v1/snapshot latencies.
func (t serveTally) reads() []float64 {
	return append(append([]float64(nil), t.lat[kState]...), t.lat[kSnapshot]...)
}

func runServeBursty(b *bench) error {
	n := serveTimelines
	if b.trace {
		n = 2 // run twice below: untraced, then traced
	}
	seeds := timelineSeeds(b.seed, n)
	setupRoot := b.spans.begin("setup", 0)
	tls := make([]*serveTimeline, n)
	for i, s := range seeds {
		tl, err := buildServeWorkload(b.root, s, b.spans, setupRoot)
		if err != nil {
			return err
		}
		tls[i] = tl
	}
	b.spans.end(setupRoot)
	// The schedule spreads the run's timelines over the measuring time.
	interval := time.Duration(b.seconds / float64(serveTimelines) / float64(serveDays*4) * float64(time.Second))

	drive := func(sl *spanLog, root int) ([]*timelineRun, error) {
		runs := make([]*timelineRun, len(tls))
		for i, tl := range tls {
			b.calibrate(serveKernels)
			uid := sl.begin("serve.timeline", root)
			run, err := b.serveTimelineRun(tl, i, interval, sl, uid)
			sl.end(uid)
			if err != nil {
				return nil, fmt.Errorf("serve seed %d: %w", tl.seed, err)
			}
			runs[i] = run
		}
		return runs, nil
	}
	if b.trace {
		return traceServe(b, tls, drive)
	}
	runs, err := drive(nil, 0)
	if err != nil {
		return err
	}
	for i, run := range runs {
		b.checkReplay(tls[i], i, run)
	}
	t := tallyServe(b, tls, runs)
	var setupS, cpuS, allocMB, rssMB []float64
	for _, run := range runs {
		setupS = append(setupS, run.setupS)
		cpuS = append(cpuS, run.cpuS)
		allocMB = append(allocMB, run.allocMB)
		rssMB = append(rssMB, run.rssMB)
	}
	b.set("setup_s", median(setupS))
	b.notes["setup_s"] = fmt.Sprintf("median of %d daemon starts, process start to /readyz 200", len(setupS))
	// The timeline's wall time is set by the schedule, so the host time
	// it cost is the daemon's CPU time.
	b.set("wall_s", mean(cpuS))
	b.notes["wall_s"] = fmt.Sprintf("daemon CPU time over one %d-step timeline at %v per step, mean of %d", serveDays*4, interval, len(cpuS))
	b.set("alloc_mb", mean(allocMB))
	b.notes["alloc_mb"] = "daemon heap allocation over one timeline, mean of the timelines"
	b.set("peak_rss_mb", mean(rssMB))
	b.notes["peak_rss_mb"] = "daemon peak RSS, mean of the timelines"
	b.setPct("step_p50_ms", percentile(t.lat[kStep], 0.50))
	b.setPct("step_p90_ms", percentile(t.lat[kStep], 0.90))
	b.noteTail("step", t.lat[kStep])
	b.noteTail("arrive", t.lat[kArrive])
	b.noteTail("read", t.reads())
	notePct(b, "arrive_p50_ms", t.lat[kArrive], 0.50)
	notePct(b, "arrive_p95_ms", t.lat[kArrive], 0.95)
	notePct(b, "read_p50_ms", t.reads(), 0.50)
	notePct(b, "read_p99_ms", t.reads(), 0.99)
	notePct(b, "gen.late_ms.p99", t.late, 0.99)
	return nil
}

// notePct prints a percentile beside the metrics without reporting it as
// one.
func notePct(b *bench, name string, xs []float64, q float64) {
	p := percentile(xs, q)
	b.notes[name] = fmt.Sprintf("%.6g ms  p%g of n=%d, %d beyond", p.Value, q*100, p.N, p.Beyond)
}

// traceServe drives the timelines untraced, then again with a span per
// request, and reports the serve layer plus the solver figures the
// daemon's registry exports on /snapshot.
func traceServe(b *bench, tls []*serveTimeline, drive func(*spanLog, int) ([]*timelineRun, error)) error {
	plain, err := drive(nil, 0)
	if err != nil {
		return err
	}
	root := b.spans.begin("serve-bursty", 0)
	runs, err := drive(b.spans, root)
	b.spans.end(root)
	if err != nil {
		return err
	}
	for i, run := range runs {
		b.attempt(bytes.Equal(run.decisions, plain[i].decisions),
			"serve seed %d: traced decisions differ from untraced", tls[i].seed)
		b.checkReplay(tls[i], i, run)
	}
	t := tallyServe(b, tls, runs)
	units := float64(len(runs))
	var untracedWall, tracedWall float64
	var moves, failed, replans, apps, vms float64
	reg := vb.MetricsSnapshot{Counters: map[string]float64{}, Histograms: map[string]vb.HistogramSnapshot{}}
	for i, run := range runs {
		untracedWall += plain[i].wallS
		tracedWall += run.wallS
		for _, rep := range run.reports {
			moves += float64(len(rep.Moves))
			failed += float64(len(rep.Failed))
			replans += float64(rep.Replans)
		}
		for k, v := range run.registry.Counters {
			reg.Counters[k] += v
		}
		for k, h := range run.registry.Histograms {
			acc := reg.Histograms[k]
			acc.Sum += h.Sum
			acc.Count += h.Count
			reg.Histograms[k] = acc
		}
		apps += float64(tls[i].apps)
		vms += float64(tls[i].vms)
	}
	dur, _ := totalTimes(b.spans.snapshot())
	b.set("workload.generate_s", dur["workload.generate"]/units)
	b.set("workload.apps", apps/units)
	b.set("workload.vms", vms/units)
	energyS, _ := histSum(reg, "energy.generate")
	forecastS, _ := histSum(reg, "forecast.generate")
	b.set("energy.generate_s", energyS/units)
	b.set("forecast.generate_s", forecastS/units)
	placeS := b.solverLayers(reg, units)
	b.set("sim.vm.moves", moves/units)
	b.set("sim.vm.failed", failed/units)
	b.set("sim.vm.replans", replans/units)
	b.set("serve.report_bytes", mean(t.reportB))
	b.set("serve.snapshot_ms", median(t.snapMS))
	b.set("serve.snapshot_bytes", median(t.snapB))
	queueMax := 0
	for _, run := range runs {
		queueMax = max(queueMax, run.queueMax)
	}
	b.set("serve.queue_max", float64(queueMax))
	b.set("serve.non2xx", float64(t.non2xx))
	b.set("serve.arrive_p50_ms", quantile(t.lat[kArrive], 0.50))
	b.set("serve.arrive_p95_ms", quantile(t.lat[kArrive], 0.95))
	b.set("serve.read_p50_ms", quantile(t.reads(), 0.50))
	b.set("serve.read_p99_ms", quantile(t.reads(), 0.99))
	b.set("gen.late_ms.p99", quantile(t.late, 0.99))
	b.set("bench.trace_overhead", tracedWall/untracedWall-1)
	b.set("bench.solver_share", placeS*units/tracedWall)
	b.set("bench.cluster_share", 0)
	b.notes["bench.trace_overhead"] = "open loop: wall time follows the schedule, so this stays near 0"
	return nil
}

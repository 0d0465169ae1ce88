package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestServeScheduleDueTimesAndBatches(t *testing.T) {
	interval := 100 * time.Millisecond
	starts := []time.Time{
		serveStart,                    // on boundary 0: batch 0, due with step 0
		serveStart.Add(time.Minute),   // just after boundary 0: batch 1
		serveStart.Add(3 * time.Hour), // half way: due at 50 ms, batch 1
		serveStart.Add(servePlanStep), // on boundary 1: batch 1
		serveStart.Add(2*servePlanStep + time.Second),
	}
	steps := 8
	evs, batch := serveSchedule(starts, steps, interval, 5)
	wantBatch := []int{0, 1, 1, 1, 3}
	for i, w := range wantBatch {
		if batch[i] != w {
			t.Errorf("arrival %d: batch %d, want %d", i, batch[i], w)
		}
	}
	var arrive, step, state, snap, metrics int
	for i, ev := range evs {
		if i > 0 && ev.at < evs[i-1].at {
			t.Fatalf("events out of due order at %d", i)
		}
		switch ev.kind {
		case kArrive:
			arrive++
			if ev.idx == 2 && ev.at != 50*time.Millisecond {
				t.Errorf("mid-step arrival due at %v, want 50ms", ev.at)
			}
		case kStep:
			step++
			if ev.at != time.Duration(ev.idx)*interval {
				t.Errorf("step %d due at %v", ev.idx, ev.at)
			}
		case kState:
			state++
			if ev.at != time.Duration(ev.idx)*interval/5 {
				t.Errorf("state poll %d due at %v", ev.idx, ev.at)
			}
		case kSnapshot:
			snap++
		case kMetrics:
			metrics++
		}
	}
	// Five polls in each of 8 steps is 40, whatever the interval; a
	// snapshot after steps 3 and 7; one scrape.
	if arrive != 5 || step != steps || state != 40 || snap != 2 || metrics != 1 {
		t.Errorf("counts arrive=%d step=%d state=%d snapshot=%d metrics=%d", arrive, step, state, snap, metrics)
	}
	// An arrival on a boundary must be scheduled before that boundary's
	// step so the step waits for it.
	for _, ev := range evs {
		if ev.kind == kStep && ev.idx == 0 {
			break
		}
		if ev.kind == kArrive && ev.idx == 0 {
			return
		}
	}
	t.Error("boundary arrival is not ahead of its step")
}

func TestSampleLatencyCountsFromDue(t *testing.T) {
	due := time.Unix(100, 0)
	s := sample{kind: kStep, due: due, sent: due.Add(3 * time.Millisecond), done: due.Add(20 * time.Millisecond), status: 200}
	if !near(s.latencyMS(), 20) || !near(s.lateMS(), 3) {
		t.Errorf("latency %v ms, late %v ms; want 20 and 3", s.latencyMS(), s.lateMS())
	}
	if !s.ok() {
		t.Error("200 should be ok")
	}
	s.status = 429
	if s.ok() {
		t.Error("429 must count as failed")
	}
}

func TestTallyServeCountsFailuresAndLateness(t *testing.T) {
	due := time.Unix(0, 0)
	mk := func(k reqKind, lat time.Duration, status int) sample {
		return sample{kind: k, due: due, sent: due.Add(time.Millisecond), done: due.Add(lat), status: status}
	}
	run := &timelineRun{
		samples: []sample{
			mk(kArrive, 2*time.Millisecond, 202),
			mk(kArrive, 4*time.Millisecond, 429),
			mk(kStep, 10*time.Millisecond, 200),
			mk(kState, time.Millisecond, 200),
			mk(kSnapshot, 30*time.Millisecond, 200),
		},
		reportLen: []int{100, 300},
	}
	b := newBench()
	tl := tallyServe(b, []*serveTimeline{{seed: 1}}, []*timelineRun{run})
	if b.attempted != 5 || b.failed != 1 || tl.non2xx != 1 {
		t.Errorf("attempted %d failed %d non2xx %d; want 5, 1, 1", b.attempted, b.failed, tl.non2xx)
	}
	if len(tl.reads()) != 2 || len(tl.lat[kArrive]) != 2 || len(tl.late) != 5 {
		t.Errorf("pooled reads %d arrivals %d late %d", len(tl.reads()), len(tl.lat[kArrive]), len(tl.late))
	}
	if !near(mean(tl.reportB), 200) || !near(tl.snapMS[0], 29) {
		t.Errorf("report bytes %v, snapshot service time %v", tl.reportB, tl.snapMS)
	}
}

// fakeVbserve installs a stand-in vbserve under root that answers
// -replay by writing the given decision log.
func fakeVbserve(t *testing.T, root, decisions string) {
	t.Helper()
	bin := filepath.Join(root, ".bench_build", "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(root, "decisions.src")
	if err := os.WriteFile(src, []byte(decisions), 0o644); err != nil {
		t.Fatal(err)
	}
	script := "#!/bin/sh\nwhile [ $# -gt 0 ]; do\n  if [ \"$1\" = -decisions ]; then cp '" + src + "' \"$2\"; fi\n  shift\ndone\n"
	if err := os.WriteFile(filepath.Join(bin, "vbserve"), []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
}

func TestCheckReplayFailsOnWrongReference(t *testing.T) {
	root := t.TempDir()
	b := newBench()
	b.root = root
	if err := os.MkdirAll(b.outDir(), 0o755); err != nil {
		t.Fatal(err)
	}
	fakeVbserve(t, root, "{\"step\":0}\n")
	tl := &serveTimeline{seed: 9}

	b.checkReplay(tl, 0, &timelineRun{decisions: []byte("{\"step\":0}\n"), log: []byte("{\"op\":\"step\"}\n")})
	if b.failed != 0 {
		t.Fatalf("matching replay counted as failed")
	}
	b.checkReplay(tl, 1, &timelineRun{decisions: []byte("{\"step\":1}\n"), log: []byte("{\"op\":\"step\"}\n")})
	if b.attempted != 2 || b.failed != 1 {
		t.Errorf("wrong reference: attempted %d failed %d, want 2 and 1", b.attempted, b.failed)
	}
}

package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", Start: 0, End: 10},
		// Two overlapping children (a parallel fan-out) count once: 1..5.
		{ID: 2, Parent: 1, Name: "child", Start: 1, End: 3},
		{ID: 3, Parent: 1, Name: "child", Start: 2, End: 5},
		{ID: 4, Parent: 1, Name: "child", Start: 7, End: 8},
		// A grandchild reduces its parent only, not the root.
		{ID: 5, Parent: 4, Name: "leaf", Start: 7.25, End: 7.75},
		// A child reaching past its parent is clipped to the parent.
		{ID: 6, Parent: 1, Name: "late", Start: 9.5, End: 12},
		// Unfinished spans are ignored.
		{ID: 7, Parent: 1, Name: "open", Start: 6, End: -1},
	}
	self := selfTimes(spans)
	want := map[string]float64{
		"root":  10 - (4 + 1 + 0.5),
		"child": 2 + 3 + (1 - 0.5),
		"leaf":  0.5,
		"late":  2.5,
	}
	for name, w := range want {
		if !near(self[name], w) {
			t.Errorf("self[%s] = %v, want %v", name, self[name], w)
		}
	}
	if _, ok := self["open"]; ok {
		t.Error("unfinished span got a self time")
	}
	dur, count := totalTimes(spans)
	if !near(dur["child"], 6) || count["child"] != 3 {
		t.Errorf("totalTimes child = %v over %d spans", dur["child"], count["child"])
	}
}

func TestSelfTimesSumToRootDuration(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "unit", Start: 0, End: 4},
		{ID: 2, Parent: 1, Name: "sim.run", Start: 0.5, End: 3.5},
		{ID: 3, Parent: 2, Name: "sim.advance", Start: 1, End: 2},
		{ID: 4, Parent: 2, Name: "sim.advance", Start: 2, End: 3},
	}
	total := 0.0
	for _, v := range selfTimes(spans) {
		total += v
	}
	if !near(total, 4) {
		t.Errorf("self times sum to %v, want the root's 4", total)
	}
}

func TestSpanLogRecordsAndWrites(t *testing.T) {
	var nilLog *spanLog
	if id := nilLog.begin("x", 0); id != 0 {
		t.Fatal("nil span log must be a no-op")
	}
	nilLog.end(0)

	l := newSpanLog("run-1")
	root := l.begin("root", 0)
	t0 := time.Now()
	child := l.add("child", root, t0, t0.Add(time.Millisecond))
	l.end(root)
	spans := l.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].ID != child {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].End < spans[0].Start || !near(spans[1].dur(), 0.001) {
		t.Errorf("bad intervals: %+v", spans)
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := l.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	n := 0
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		if s.Run != "run-1" {
			t.Errorf("span %d has run %q", s.ID, s.Run)
		}
		n++
	}
	if n != 2 {
		t.Errorf("wrote %d spans, want 2", n)
	}
}

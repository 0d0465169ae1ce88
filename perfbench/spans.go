package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one benchmark
// run share Run; Parent is 0 for a root span.
type span struct {
	Run    string  `json:"run"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// spanLog keeps spans in memory until the run ends. A nil *spanLog is the
// untraced mode: begin returns 0 and end does nothing, so call sites need
// no branches.
type spanLog struct {
	mu     sync.Mutex
	run    string
	origin time.Time
	spans  []span
}

func newSpanLog(run string) *spanLog {
	return &spanLog{run: run, origin: time.Now()}
}

// begin opens a span under parent and returns its id.
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return 0
	}
	now := time.Since(l.origin).Seconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Run: l.run, ID: len(l.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(l.spans)
}

// end closes the span with the given id.
func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	now := time.Since(l.origin).Seconds()
	l.mu.Lock()
	l.spans[id-1].End = now
	l.mu.Unlock()
}

// add records an already-measured interval (used where the benchmark
// times a call itself and wants no extra clock reads).
func (l *spanLog) add(name string, parent int, start, end time.Time) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Run: l.run, ID: len(l.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(l.origin).Seconds(), End: end.Sub(l.origin).Seconds()})
	return len(l.spans)
}

// snapshot returns a copy of the recorded spans.
func (l *spanLog) snapshot() []span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// writeJSONL writes every span, one JSON object per line.
func (l *spanLog) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums each span name's self time: its duration minus the part
// of its interval that its children cover. Children that overlap each
// other (a parallel fan-out) are counted once. Unfinished spans are
// ignored.
func selfTimes(spans []span) map[string]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		out[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]float64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]float64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, curA, curB := 0.0, 0.0, -1.0
	for _, x := range iv {
		if x[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = x[0], x[1]
			continue
		}
		curB = max(curB, x[1])
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// totalTimes sums span durations and counts spans by name.
func totalTimes(spans []span) (dur map[string]float64, count map[string]int) {
	dur, count = map[string]float64{}, map[string]int{}
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		dur[s.Name] += s.dur()
		count[s.Name]++
	}
	return dur, count
}

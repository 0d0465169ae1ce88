package cluster

import (
	"math"
	"time"
)

// fitIndex buckets servers by free cores so best-fit placement visits only
// servers that could take a VM. Bucket f is a bitset over server indices
// holding every server with exactly f free cores, plus a population count
// so empty buckets are skipped without touching their words.
type fitIndex struct {
	buckets [][]uint64 // [free cores][server/64]
	count   []int      // servers per bucket
}

func newFitIndex(servers, coresPerServer int) fitIndex {
	ix := fitIndex{
		buckets: make([][]uint64, coresPerServer+1),
		count:   make([]int, coresPerServer+1),
	}
	words := (servers + 63) / 64
	backing := make([]uint64, words*(coresPerServer+1))
	for f := range ix.buckets {
		ix.buckets[f] = backing[f*words : (f+1)*words]
	}
	return ix
}

func (ix *fitIndex) add(server, free int) {
	ix.buckets[free][server/64] |= 1 << (server % 64)
	ix.count[free]++
}

func (ix *fitIndex) move(server, from, to int) {
	if from == to {
		return
	}
	ix.buckets[from][server/64] &^= 1 << (server % 64)
	ix.count[from]--
	ix.add(server, to)
}

// stamp is an exact, ordered encoding of a wall-clock instant: Unix
// seconds, then nanoseconds. Unlike UnixNano it cannot overflow, so a VM
// whose Arrival is the zero time still orders before any real `now`.
// Monotonic clock readings are ignored; simulated times never carry them.
type stamp struct {
	sec  int64
	nsec int32
}

// never is the end stamp of a VM that runs until the simulation stops.
var never = stamp{sec: math.MaxInt64}

func stampOf(t time.Time) stamp { return stamp{t.Unix(), int32(t.Nanosecond())} }

// endStamp is the stamp of a VM's End(), or never when End() is the zero
// time (the VM has no lifetime).
func endStamp(end time.Time) stamp {
	if end.IsZero() {
		return never
	}
	return stampOf(end)
}

func (a stamp) before(b stamp) bool {
	return a.sec < b.sec || a.sec == b.sec && a.nsec < b.nsec
}

// departure is one entry of the departure heap: a VM ID keyed by the end
// time it had when it was placed.
type departure struct {
	end stamp
	id  int
}

func (a departure) less(b departure) bool {
	return a.end.before(b.end) || a.end == b.end && a.id < b.id
}

// departureHeap is a binary min-heap on (end, id). Entries are deleted
// lazily: an entry is only a hint that a VM may be due, checked against
// the running VM when popped, so Remove and eviction never touch the heap.
type departureHeap []departure

func (h *departureHeap) push(d departure) {
	*h = append(*h, d)
	h.up(len(*h) - 1)
}

func (h *departureHeap) pop() departure {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	h.down(0)
	return top
}

// heapify restores the heap property over arbitrary contents in O(n).
func (h departureHeap) heapify() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h departureHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].less(h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (h departureHeap) down(i int) {
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && h[r].less(h[c]) {
			c = r
		}
		if !h[c].less(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

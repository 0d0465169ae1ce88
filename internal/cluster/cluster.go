// Package cluster simulates a single Virtual Battery site: a renewable farm
// co-located with a mini data center whose compute scales with available
// power (paper §3).
//
// The model follows the paper's setup exactly:
//
//   - ~700 servers, 40 cores and 512 GB memory each;
//   - an Azure-style consolidating VM placement policy: best fit, in arrival
//     order, onto the server with the fewest free cores that still fits
//     the VM's cores and memory (lowest server index on a tie);
//   - admission control that rejects VMs beyond a 70% utilization target;
//   - when power decreases, unallocated cores are powered down first and
//     only then are VMs migrated out, in round-robin order over servers
//     (smallest VM ID first on each server);
//   - when power increases, previously rejected/evicted VMs launch oldest
//     first and are counted as migrations into the site;
//   - migration traffic is estimated by VM memory size.
//
// Four indexes keep a step proportional to the VMs it touches rather than
// to the site size, each reproducing the tie-breaks of a full scan:
//
//   - a best-fit index buckets servers by free cores, each bucket a bitset
//     in server order, so the first memory-fitting server found searching
//     upward from the VM's core count is the fewest-free-cores,
//     lowest-index server;
//   - a departure min-heap on (end time, VM ID) with lazy deletion: an
//     entry only hints that a VM may be due and is checked against the
//     running VM when popped; it is rebuilt from the running VMs whenever
//     stale entries would let it outgrow twice the running count;
//   - each server's VM list is kept sorted by ID, so eviction takes the
//     head and State needs no sort;
//   - the pending queue caches each VM's end time and is compacted in
//     place in a single pass, copying nothing until something leaves.
package cluster

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"github.com/vbcloud/vb/internal/workload"
)

// Config describes the hardware of one VB site.
type Config struct {
	// Servers is the machine count (paper: ~700).
	Servers int
	// CoresPerServer is the core count per machine (paper: 40).
	CoresPerServer int
	// MemPerServerGB is the memory per machine (paper: 512).
	MemPerServerGB int
	// TargetUtilization is the admission-control bound on allocated cores
	// as a fraction of currently powered cores (paper: 0.70).
	TargetUtilization float64
}

// DefaultConfig returns the paper's site configuration.
func DefaultConfig() Config {
	return Config{
		Servers:           700,
		CoresPerServer:    40,
		MemPerServerGB:    512,
		TargetUtilization: 0.70,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Servers <= 0 {
		return fmt.Errorf("cluster: non-positive server count %d", c.Servers)
	}
	if c.CoresPerServer <= 0 {
		return fmt.Errorf("cluster: non-positive cores per server %d", c.CoresPerServer)
	}
	if c.MemPerServerGB <= 0 {
		return fmt.Errorf("cluster: non-positive memory per server %d", c.MemPerServerGB)
	}
	if c.TargetUtilization <= 0 || c.TargetUtilization > 1 {
		return fmt.Errorf("cluster: target utilization %v outside (0,1]", c.TargetUtilization)
	}
	return nil
}

// TotalCores returns the fully powered core count.
func (c Config) TotalCores() int { return c.Servers * c.CoresPerServer }

// server tracks per-machine allocation.
type server struct {
	allocCores int
	allocMemGB int
	vms        []workload.VM // sorted by ID
}

// find returns the position of vmID in the server's list, or where it
// would be inserted.
func (srv *server) find(vmID int) int {
	lo, hi := 0, len(srv.vms)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if srv.vms[m].ID < vmID {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// pendingVM is a VM waiting for power: either rejected at arrival or evicted
// by a power drop.
type pendingVM struct {
	vm      workload.VM
	endSec  int64 // Unix seconds of vm.End() (never.sec without a lifetime), cached for expired
	evicted bool  // true if it previously ran here (re-launch is a migration in either way)
}

func newPending(vm workload.VM, evicted bool) pendingVM {
	return pendingVM{vm: vm, endSec: endStamp(vm.End()).sec, evicted: evicted}
}

// expired reports whether the VM's lifetime is over at now. The cached
// seconds decide every case but a shared second, which falls back to the
// exact end time.
func (p *pendingVM) expired(now stamp) bool {
	if p.endSec != now.sec {
		return p.endSec < now.sec
	}
	return !now.before(endStamp(p.vm.End()))
}

// departureSlack is the constant part of the departure heap's size bound:
// the heap is rebuilt once it holds more than 2×Running()+departureSlack
// entries, which keeps rebuilds amortized O(1) per placement.
const departureSlack = 64

// Site is a single VB site simulator. Create with New; the zero value is not
// usable.
type Site struct {
	cfg     Config
	servers []server
	where   map[int]int // vmID -> server index
	powered int         // cores currently powered
	alloc   int         // cores currently allocated (cached sum)
	pending []pendingVM
	// evictCursor implements the paper's round-robin eviction order.
	evictCursor int
	fit         fitIndex
	departures  departureHeap
}

// New returns an empty, fully powered site.
func New(cfg Config) (*Site, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Site{
		cfg:     cfg,
		servers: make([]server, cfg.Servers),
		where:   make(map[int]int),
		powered: cfg.TotalCores(),
	}
	s.buildIndexes()
	return s, nil
}

// buildIndexes derives the best-fit index and the departure heap from the
// server lists.
func (s *Site) buildIndexes() {
	s.fit = newFitIndex(s.cfg.Servers, s.cfg.CoresPerServer)
	for i := range s.servers {
		s.fit.add(i, s.cfg.CoresPerServer-s.servers[i].allocCores)
	}
	s.rebuildDepartures()
}

// rebuildDepartures replaces the departure heap with exactly one entry per
// running VM that has a lifetime, dropping every stale entry.
func (s *Site) rebuildDepartures() {
	h := s.departures[:0]
	for i := range s.servers {
		for _, vm := range s.servers[i].vms {
			if end := vm.End(); !end.IsZero() {
				h = append(h, departure{end: stampOf(end), id: vm.ID})
			}
		}
	}
	h.heapify()
	s.departures = h
}

// trimDepartures rebuilds the departure heap when stale entries (left by
// Remove and eviction, which never touch it) would let it outgrow the
// running set. Callers that only Admit and Remove never call Step, so
// without this the heap would grow by one entry per admission forever.
func (s *Site) trimDepartures() {
	if len(s.departures) > 2*len(s.where)+departureSlack {
		s.rebuildDepartures()
	}
}

// Config returns the site configuration.
func (s *Site) Config() Config { return s.cfg }

// AllocatedCores returns the cores currently allocated to running VMs.
func (s *Site) AllocatedCores() int { return s.alloc }

// PoweredCores returns the cores currently powered.
func (s *Site) PoweredCores() int { return s.powered }

// Running returns the number of running VMs.
func (s *Site) Running() int { return len(s.where) }

// Pending returns the number of VMs waiting for power.
func (s *Site) Pending() int { return len(s.pending) }

// Utilization returns allocated cores over total cores.
func (s *Site) Utilization() float64 {
	return float64(s.AllocatedCores()) / float64(s.cfg.TotalCores())
}

// floorEps truncates x to an integer the way int(x) does, except that a
// product which float arithmetic landed a hair below an exact integer
// (0.70 × 19600 = 13719.999999999998) is rescued onto it. The epsilon is
// far below one core, so genuine fractional results still truncate.
func floorEps(x float64) int {
	return int(math.Floor(x + 1e-9))
}

// setPower powers the cores for a power fraction clamped to [0,1]. NaN
// compares false against both bounds and would otherwise poison s.powered
// with a platform-defined integer, so any non-finite reading below full
// power (NaN, -Inf) is a blackout, the conservative interpretation, and
// +Inf is full power.
func (s *Site) setPower(powerFrac float64) {
	switch {
	case math.IsNaN(powerFrac) || powerFrac < 0:
		powerFrac = 0
	case powerFrac > 1:
		powerFrac = 1
	}
	s.powered = floorEps(powerFrac * float64(s.cfg.TotalCores()))
}

// admissionLimit is the maximum allocated cores admission control allows at
// the current power level.
func (s *Site) admissionLimit() int {
	return floorEps(s.cfg.TargetUtilization * float64(s.powered))
}

// place puts a VM on the best-fit server (the most loaded server that still
// fits, maximizing consolidation as Azure's allocator does). It returns
// false if no server fits or admission control refuses. A VM with a
// negative size is malformed and never fits.
func (s *Site) place(vm workload.VM) bool {
	if s.alloc+vm.Cores > s.admissionLimit() || vm.Cores < 0 || vm.MemoryGB < 0 {
		return false
	}
	best := s.bestFit(vm)
	if best < 0 {
		return false
	}
	srv := &s.servers[best]
	free := s.cfg.CoresPerServer - srv.allocCores
	s.fit.move(best, free, free-vm.Cores)
	srv.allocCores += vm.Cores
	srv.allocMemGB += vm.MemoryGB
	at := srv.find(vm.ID)
	srv.vms = slices.Insert(srv.vms, at, vm)
	s.where[vm.ID] = best
	s.alloc += vm.Cores
	if end := vm.End(); !end.IsZero() {
		s.departures.push(departure{end: stampOf(end), id: vm.ID})
	}
	return true
}

// bestFit returns the server with the fewest free cores that fits vm's
// cores and memory, the lowest index among ties, or -1. Buckets are
// searched upward from vm.Cores and each in server order, so the first hit
// is exactly what a scan of every server keeping the strictly smallest
// free-core count would pick.
func (s *Site) bestFit(vm workload.VM) int {
	if vm.MemoryGB > s.cfg.MemPerServerGB {
		return -1
	}
	for f := vm.Cores; f <= s.cfg.CoresPerServer; f++ {
		if s.fit.count[f] == 0 {
			continue
		}
		for w, word := range s.fit.buckets[f] {
			for ; word != 0; word &= word - 1 {
				i := w*64 + bits.TrailingZeros64(word)
				if vm.MemoryGB <= s.cfg.MemPerServerGB-s.servers[i].allocMemGB {
					return i
				}
			}
		}
	}
	return -1
}

// detach deletes the VM at position `at` of server idx's list and returns
// it, leaving any departure-heap entry to be discarded lazily.
func (s *Site) detach(idx, at int) workload.VM {
	srv := &s.servers[idx]
	vm := srv.vms[at]
	srv.vms = slices.Delete(srv.vms, at, at+1)
	free := s.cfg.CoresPerServer - srv.allocCores
	s.fit.move(idx, free, free+vm.Cores)
	srv.allocCores -= vm.Cores
	srv.allocMemGB -= vm.MemoryGB
	s.alloc -= vm.Cores
	delete(s.where, vm.ID)
	return vm
}

// Remove deletes a running VM (normal departure). It reports whether the VM
// was running.
func (s *Site) Remove(vmID int) bool {
	idx, ok := s.where[vmID]
	if !ok {
		return false
	}
	at := s.servers[idx].find(vmID)
	s.detach(idx, at)
	s.trimDepartures()
	return true
}

// StepResult reports what happened in one simulation step.
type StepResult struct {
	// OutGB is migration traffic leaving the site (evictions).
	OutGB float64
	// InGB is migration traffic entering the site (launches of previously
	// rejected or evicted VMs).
	InGB float64
	// Evicted, Launched, RejectedNew, Departed count VM events. Launched
	// counts launches from the pending queue; RejectedNew counts fresh
	// arrivals that could not start immediately.
	Evicted     int
	Launched    int
	RejectedNew int
	Departed    int
}

// Step advances the site to `now`: departs finished VMs, applies the new
// power fraction (evicting if needed), admits fresh arrivals, and launches
// pending VMs into any remaining capacity.
func (s *Site) Step(now time.Time, powerFrac float64, arrivals []workload.VM) StepResult {
	var res StepResult
	nowS := stampOf(now)

	// 1) Departures: running VMs whose lifetime ended. A popped entry is
	// stale if its VM has left or was re-admitted with a later end.
	for len(s.departures) > 0 && !nowS.before(s.departures[0].end) {
		d := s.departures.pop()
		idx, ok := s.where[d.id]
		if !ok {
			continue
		}
		at := s.servers[idx].find(d.id)
		if nowS.before(endStamp(s.servers[idx].vms[at].End())) {
			continue
		}
		s.detach(idx, at)
		res.Departed++
	}
	// Drop pending VMs whose lifetime would already be over.
	s.pending = s.compactPending(func(p *pendingVM) bool { return !p.expired(nowS) })

	// 2) Power change.
	s.setPower(powerFrac)
	// Evict while allocation exceeds powered cores: unallocated cores were
	// implicitly powered down first (they are not counted in allocation).
	res.OutGB, res.Evicted = s.evictDown()

	// 3) Fresh arrivals.
	for _, vm := range arrivals {
		if !s.place(vm) {
			s.pending = append(s.pending, newPending(vm, false))
			res.RejectedNew++
		}
	}

	// 4) Launch pending VMs (oldest first) into remaining headroom. Every
	// launch is a migration into the site. Once the headroom is gone no VM
	// with at least one core can launch, so those are kept without a
	// placement attempt.
	limit := s.admissionLimit()
	s.pending = s.compactPending(func(p *pendingVM) bool {
		if s.alloc+p.vm.Cores > limit || !s.place(p.vm) {
			return true
		}
		res.InGB += float64(p.vm.MemoryGB)
		res.Launched++
		return false
	})
	s.trimDepartures()
	return res
}

// compactPending walks the pending queue once in order, keeping the VMs
// for which keep reports true. Survivors are moved down in place, and
// nothing is copied until the first VM leaves.
func (s *Site) compactPending(keep func(*pendingVM) bool) []pendingVM {
	w := 0
	for r := range s.pending {
		if !keep(&s.pending[r]) {
			continue
		}
		if w != r {
			s.pending[w] = s.pending[r]
		}
		w++
	}
	return s.pending[:w]
}

// evictDown migrates VMs out, in round-robin order over servers, until the
// allocated cores fit under the powered cores. It returns the traffic and
// eviction count, and queues evicted VMs for relaunch when power returns.
func (s *Site) evictDown() (outGB float64, evicted int) {
	if len(s.servers) == 0 {
		return 0, 0
	}
	for s.AllocatedCores() > s.powered {
		moved := false
		// One full round-robin sweep: take one VM from each non-empty
		// server starting at the cursor.
		for scan := 0; scan < len(s.servers); scan++ {
			idx := (s.evictCursor + scan) % len(s.servers)
			if len(s.servers[idx].vms) == 0 {
				continue
			}
			// The smallest ID heads the sorted list.
			vm := s.detach(idx, 0)
			s.pending = append(s.pending, newPending(vm, true))
			outGB += float64(vm.MemoryGB)
			evicted++
			moved = true
			s.evictCursor = (idx + 1) % len(s.servers)
			if s.AllocatedCores() <= s.powered {
				return outGB, evicted
			}
		}
		if !moved {
			break // nothing left to evict
		}
	}
	return outGB, evicted
}

// Admit places a VM immediately, respecting admission control and server
// fit, without the pending-queue machinery of Step. It reports success.
// Used by the VM-level multi-site engine, which decides itself where
// rejected VMs go.
func (s *Site) Admit(vm workload.VM) bool {
	ok := s.place(vm)
	s.trimDepartures()
	return ok
}

// SetPowerEvict applies a new power fraction and evicts VMs round-robin
// until the allocation fits under the powered cores, returning the evicted
// VMs. Unlike Step, evicted VMs are NOT queued for relaunch here — the
// caller (e.g. a multi-site engine) decides where they go.
func (s *Site) SetPowerEvict(powerFrac float64) []workload.VM {
	s.setPower(powerFrac)
	before := len(s.pending)
	s.evictDown()
	// evictDown queues evictions on s.pending; claim them back.
	evicted := make([]workload.VM, 0, len(s.pending)-before)
	for _, p := range s.pending[before:] {
		evicted = append(evicted, p.vm)
	}
	s.pending = s.pending[:before]
	s.trimDepartures()
	return evicted
}

// Holds reports whether the given VM is currently running on this site.
func (s *Site) Holds(vmID int) bool {
	_, ok := s.where[vmID]
	return ok
}

package cluster

import (
	"math"
	"sort"
	"time"

	"github.com/vbcloud/vb/internal/workload"
)

// refSite is the original linear-scan site simulator, kept verbatim as the
// oracle for the differential test: placement scans every server, departures
// scan the whole where-map, eviction scans each server's VM map for the
// smallest ID, and the pending queue is re-walked by copying. The one change
// from the original is that Step clamps non-finite power the same way
// SetPowerEvict always did, so both simulators can be fed NaN and ±Inf.
type refSite struct {
	cfg         Config
	servers     []refServer
	where       map[int]int
	powered     int
	alloc       int
	pending     []PendingVMState
	evictCursor int
}

type refServer struct {
	allocCores int
	allocMemGB int
	vms        map[int]workload.VM
}

func newRefSite(cfg Config) *refSite {
	s := &refSite{
		cfg:     cfg,
		servers: make([]refServer, cfg.Servers),
		where:   make(map[int]int),
		powered: cfg.TotalCores(),
	}
	for i := range s.servers {
		s.servers[i].vms = make(map[int]workload.VM)
	}
	return s
}

func refFromState(st SiteState) *refSite {
	s := newRefSite(st.Config)
	s.powered = st.Powered
	s.evictCursor = st.EvictCursor
	for i, vms := range st.Servers {
		for _, vm := range vms {
			s.servers[i].allocCores += vm.Cores
			s.servers[i].allocMemGB += vm.MemoryGB
			s.servers[i].vms[vm.ID] = vm
			s.where[vm.ID] = i
			s.alloc += vm.Cores
		}
	}
	s.pending = append([]PendingVMState(nil), st.Pending...)
	return s
}

func (s *refSite) state() SiteState {
	st := SiteState{
		Config:      s.cfg,
		Powered:     s.powered,
		EvictCursor: s.evictCursor,
		Servers:     make([][]workload.VM, len(s.servers)),
		Pending:     append([]PendingVMState{}, s.pending...),
	}
	for i := range s.servers {
		vms := make([]workload.VM, 0, len(s.servers[i].vms))
		for _, vm := range s.servers[i].vms {
			vms = append(vms, vm)
		}
		sort.Slice(vms, func(a, b int) bool { return vms[a].ID < vms[b].ID })
		st.Servers[i] = vms
	}
	return st
}

func (s *refSite) admissionLimit() int {
	return floorEps(s.cfg.TargetUtilization * float64(s.powered))
}

func (s *refSite) place(vm workload.VM) bool {
	if s.alloc+vm.Cores > s.admissionLimit() {
		return false
	}
	best := -1
	bestFree := 1 << 30
	for i := range s.servers {
		freeCores := s.cfg.CoresPerServer - s.servers[i].allocCores
		freeMem := s.cfg.MemPerServerGB - s.servers[i].allocMemGB
		if vm.Cores <= freeCores && vm.MemoryGB <= freeMem && freeCores < bestFree {
			best, bestFree = i, freeCores
		}
	}
	if best < 0 {
		return false
	}
	s.servers[best].allocCores += vm.Cores
	s.servers[best].allocMemGB += vm.MemoryGB
	s.servers[best].vms[vm.ID] = vm
	s.where[vm.ID] = best
	s.alloc += vm.Cores
	return true
}

func (s *refSite) Remove(vmID int) bool {
	idx, ok := s.where[vmID]
	if !ok {
		return false
	}
	vm := s.servers[idx].vms[vmID]
	s.servers[idx].allocCores -= vm.Cores
	s.servers[idx].allocMemGB -= vm.MemoryGB
	s.alloc -= vm.Cores
	delete(s.servers[idx].vms, vmID)
	delete(s.where, vmID)
	return true
}

func (s *refSite) Admit(vm workload.VM) bool { return s.place(vm) }

func (s *refSite) setPower(powerFrac float64) {
	if math.IsNaN(powerFrac) || math.IsInf(powerFrac, -1) {
		powerFrac = 0
	}
	if powerFrac < 0 {
		powerFrac = 0
	}
	if powerFrac > 1 {
		powerFrac = 1
	}
	s.powered = floorEps(powerFrac * float64(s.cfg.TotalCores()))
}

func (s *refSite) Step(now time.Time, powerFrac float64, arrivals []workload.VM) StepResult {
	var res StepResult
	var done []int
	for id, idx := range s.where {
		vm := s.servers[idx].vms[id]
		if end := vm.End(); !end.IsZero() && !end.After(now) {
			done = append(done, id)
		}
	}
	sort.Ints(done)
	for _, id := range done {
		s.Remove(id)
		res.Departed++
	}
	kept := s.pending[:0]
	for _, p := range s.pending {
		if end := p.VM.End(); !end.IsZero() && !end.After(now) {
			continue
		}
		kept = append(kept, p)
	}
	s.pending = kept

	s.setPower(powerFrac)
	res.OutGB, res.Evicted = s.evictDown()

	for _, vm := range arrivals {
		if !s.place(vm) {
			s.pending = append(s.pending, PendingVMState{VM: vm})
			res.RejectedNew++
		}
	}
	still := s.pending[:0]
	for _, p := range s.pending {
		if s.place(p.VM) {
			res.InGB += float64(p.VM.MemoryGB)
			res.Launched++
		} else {
			still = append(still, p)
		}
	}
	s.pending = still
	return res
}

func (s *refSite) evictDown() (outGB float64, evicted int) {
	for s.alloc > s.powered {
		moved := false
		for scan := 0; scan < len(s.servers); scan++ {
			idx := (s.evictCursor + scan) % len(s.servers)
			srv := &s.servers[idx]
			if len(srv.vms) == 0 {
				continue
			}
			vmID := -1
			for id := range srv.vms {
				if vmID < 0 || id < vmID {
					vmID = id
				}
			}
			vm := srv.vms[vmID]
			s.Remove(vmID)
			s.pending = append(s.pending, PendingVMState{VM: vm, Evicted: true})
			outGB += float64(vm.MemoryGB)
			evicted++
			moved = true
			s.evictCursor = (idx + 1) % len(s.servers)
			if s.alloc <= s.powered {
				return outGB, evicted
			}
		}
		if !moved {
			break
		}
	}
	return outGB, evicted
}

func (s *refSite) SetPowerEvict(powerFrac float64) []workload.VM {
	s.setPower(powerFrac)
	before := len(s.pending)
	s.evictDown()
	evicted := make([]workload.VM, 0, len(s.pending)-before)
	for _, p := range s.pending[before:] {
		evicted = append(evicted, p.VM)
	}
	s.pending = s.pending[:before]
	return evicted
}

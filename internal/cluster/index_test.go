package cluster

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/vbcloud/vb/internal/workload"
)

// checkInvariants verifies that the site's indexes agree with its server
// lists: the cached allocation, the best-fit buckets, the where-map, the
// ID order of every server list, the departure heap's coverage and size
// bound, and the pending queue's cached end times.
func (s *Site) checkInvariants() error {
	C := s.cfg.CoresPerServer
	alloc, listed := 0, 0
	for i := range s.servers {
		srv := &s.servers[i]
		cores, mem := 0, 0
		for j, vm := range srv.vms {
			if j > 0 && srv.vms[j-1].ID >= vm.ID {
				return fmt.Errorf("server %d list not sorted by ID at %d: %d then %d", i, j, srv.vms[j-1].ID, vm.ID)
			}
			if idx, ok := s.where[vm.ID]; !ok || idx != i {
				return fmt.Errorf("VM %d listed on server %d but where says %d (present %v)", vm.ID, i, idx, ok)
			}
			cores += vm.Cores
			mem += vm.MemoryGB
		}
		if cores != srv.allocCores || mem != srv.allocMemGB {
			return fmt.Errorf("server %d caches %d cores/%d GB, lists %d/%d", i, srv.allocCores, srv.allocMemGB, cores, mem)
		}
		alloc += srv.allocCores
		listed += len(srv.vms)
		free := C - srv.allocCores
		for f := 0; f <= C; f++ {
			in := s.fit.buckets[f][i/64]&(1<<(i%64)) != 0
			if in != (f == free) {
				return fmt.Errorf("server %d with %d free cores: in bucket %d = %v", i, free, f, in)
			}
		}
	}
	if alloc != s.alloc {
		return fmt.Errorf("alloc %d, servers sum to %d", s.alloc, alloc)
	}
	if listed != len(s.where) {
		return fmt.Errorf("where has %d VMs, server lists %d", len(s.where), listed)
	}
	for f, words := range s.fit.buckets {
		n := 0
		for _, w := range words {
			n += bits.OnesCount64(w)
		}
		if n != s.fit.count[f] {
			return fmt.Errorf("bucket %d holds %d servers, count says %d", f, n, s.fit.count[f])
		}
	}
	entries := make(map[departure]bool, len(s.departures))
	for i, d := range s.departures {
		if i > 0 && d.less(s.departures[(i-1)/2]) {
			return fmt.Errorf("departure heap order broken at %d", i)
		}
		entries[d] = true
	}
	for i := range s.servers {
		for _, vm := range s.servers[i].vms {
			if end := vm.End(); !end.IsZero() && !entries[departure{end: stampOf(end), id: vm.ID}] {
				return fmt.Errorf("running VM %d ending %v has no departure entry", vm.ID, end)
			}
		}
	}
	if limit := 2*s.Running() + departureSlack; len(s.departures) > limit {
		return fmt.Errorf("departure heap holds %d entries for %d running VMs (bound %d)", len(s.departures), s.Running(), limit)
	}
	for i, p := range s.pending {
		if p.endSec != endStamp(p.vm.End()).sec {
			return fmt.Errorf("pending %d (VM %d) caches a stale end", i, p.vm.ID)
		}
	}
	return nil
}

// sameAsRef compares every piece of state the two simulators expose to
// their futures: placement of each VM, pending order, cursor and power.
func sameAsRef(s *Site, ref *refSite) error {
	if s.powered != ref.powered || s.alloc != ref.alloc || s.evictCursor != ref.evictCursor {
		return fmt.Errorf("powered/alloc/cursor %d/%d/%d, reference %d/%d/%d",
			s.powered, s.alloc, s.evictCursor, ref.powered, ref.alloc, ref.evictCursor)
	}
	if !reflect.DeepEqual(s.where, ref.where) {
		return fmt.Errorf("VM placement differs from reference")
	}
	if len(s.pending) != len(ref.pending) {
		return fmt.Errorf("pending %d VMs, reference %d", len(s.pending), len(ref.pending))
	}
	for i, p := range s.pending {
		if p.vm != ref.pending[i].VM || p.evicted != ref.pending[i].Evicted {
			return fmt.Errorf("pending[%d] = VM %d (evicted %v), reference VM %d (evicted %v)",
				i, p.vm.ID, p.evicted, ref.pending[i].VM.ID, ref.pending[i].Evicted)
		}
	}
	if !reflect.DeepEqual(s.State(), ref.state()) {
		return fmt.Errorf("State differs from reference")
	}
	return nil
}

// diffRunner issues one random operation stream to an indexed site and the
// linear-scan reference.
type diffRunner struct {
	rng    *rand.Rand
	s      *Site
	ref    *refSite
	now    time.Time
	nextID int
	gone   []int // IDs no longer at the site, candidates for re-admission
	// Coverage: the per-field maximum over all step results, the peak
	// allocation, and how many IDs were re-admitted.
	peak      StepResult
	peakAlloc int
	recycled  int
}

// vm draws a VM from a size mix full of ties plus memory-bound shapes;
// some are immortal, some carry a zero Arrival (so they are due at once),
// some end at a sub-second offset, and some reuse the ID of a VM that has
// left.
func (d *diffRunner) vm(taken map[int]bool) workload.VM {
	sizes := [][2]int{{1, 4}, {2, 8}, {2, 8}, {4, 16}, {4, 16}, {4, 32}, {8, 64}, {8, 32}, {16, 128}, {40, 160}, {2, 300}, {4, 480}, {1, 512}}
	sz := sizes[d.rng.IntN(len(sizes))]
	vm := workload.VM{Cores: sz[0], MemoryGB: sz[1], Arrival: d.now, Lifetime: time.Duration(1+d.rng.IntN(48)) * 15 * time.Minute}
	switch d.rng.IntN(10) {
	case 0, 1:
		vm.Lifetime = 0
	case 2:
		vm.Lifetime = time.Duration(1+d.rng.IntN(300)) * time.Minute
	case 3:
		vm.Arrival = time.Time{}
	case 4:
		vm.Lifetime += time.Duration(d.rng.IntN(1e9)) // ends inside a second
	}
	vm.ID = d.nextID
	d.nextID++
	if len(d.gone) > 0 && d.rng.IntN(5) == 0 {
		i := d.rng.IntN(len(d.gone))
		if id := d.gone[i]; !d.atSite(id) && !taken[id] {
			vm.ID = id
			d.gone = append(d.gone[:i], d.gone[i+1:]...)
			d.recycled++
		}
	}
	taken[vm.ID] = true
	return vm
}

func (d *diffRunner) atSite(id int) bool {
	if _, ok := d.ref.where[id]; ok {
		return true
	}
	for _, p := range d.ref.pending {
		if p.VM.ID == id {
			return true
		}
	}
	return false
}

func (d *diffRunner) power() float64 {
	switch d.rng.IntN(12) {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.5, 1.5}[d.rng.IntN(5)]
	case 3:
		return 0.7
	default:
		return d.rng.Float64()
	}
}

// op applies one random operation to both simulators and reports any
// difference in the result.
func (d *diffRunner) op(maxArrivals int) error {
	switch k := d.rng.IntN(20); {
	case k < 10:
		d.now = d.now.Add(time.Duration(d.rng.IntN(7)) * 15 * time.Minute)
		if d.rng.IntN(4) == 0 {
			d.now = d.now.Add(time.Duration(d.rng.IntN(1e9)))
		}
		taken := map[int]bool{}
		arr := make([]workload.VM, d.rng.IntN(maxArrivals+1))
		for i := range arr {
			arr[i] = d.vm(taken)
		}
		frac := d.power()
		got, want := d.s.Step(d.now, frac, arr), d.ref.Step(d.now, frac, arr)
		if got != want {
			return fmt.Errorf("Step(power %v): %+v, reference %+v", frac, got, want)
		}
		d.peak.Departed = max(d.peak.Departed, got.Departed)
		d.peak.Evicted = max(d.peak.Evicted, got.Evicted)
		d.peak.Launched = max(d.peak.Launched, got.Launched)
		d.peak.RejectedNew = max(d.peak.RejectedNew, got.RejectedNew)
	case k < 14:
		vm := d.vm(map[int]bool{})
		if got, want := d.s.Admit(vm), d.ref.Admit(vm); got != want {
			return fmt.Errorf("Admit(VM %d): %v, reference %v", vm.ID, got, want)
		}
	case k < 17:
		id := d.nextID + 1 // unknown
		if len(d.ref.where) > 0 && d.rng.IntN(4) != 0 {
			ids := make([]int, 0, len(d.ref.where))
			for id := range d.ref.where {
				ids = append(ids, id)
			}
			sort.Ints(ids)
			id = ids[d.rng.IntN(len(ids))]
		}
		got, want := d.s.Remove(id), d.ref.Remove(id)
		if got != want {
			return fmt.Errorf("Remove(%d): %v, reference %v", id, got, want)
		}
		if got {
			d.gone = append(d.gone, id)
		}
	case k < 19:
		frac := d.power()
		got, want := d.s.SetPowerEvict(frac), d.ref.SetPowerEvict(frac)
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("SetPowerEvict(%v) evicted %d VMs, reference %d", frac, len(got), len(want))
		}
		for _, vm := range got {
			d.gone = append(d.gone, vm.ID)
		}
	default:
		restored, err := NewFromState(d.s.State())
		if err != nil {
			return fmt.Errorf("NewFromState: %v", err)
		}
		d.s, d.ref = restored, refFromState(d.ref.state())
	}
	return nil
}

// TestSiteMatchesReference drives the indexed site and the original
// linear-scan simulator with the same random streams of Step, Admit,
// Remove, SetPowerEvict and snapshot round trips, and requires identical
// results and identical state after every operation.
func TestSiteMatchesReference(t *testing.T) {
	cases := []struct {
		name        string
		cfg         Config
		seeds, ops  int
		maxArrivals int
	}{
		{"12 servers", Config{Servers: 12, CoresPerServer: 40, MemPerServerGB: 512, TargetUtilization: 0.7}, 6, 1500, 12},
		{"700 servers", DefaultConfig(), 1, 300, 400},
	}
	if testing.Short() {
		cases[0].seeds, cases[1].ops = 2, 100
	}
	for _, c := range cases {
		for seed := 1; seed <= c.seeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", c.name, seed), func(t *testing.T) {
				s, err := New(c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				d := &diffRunner{rng: rand.New(rand.NewPCG(uint64(seed), 99)), s: s, ref: newRefSite(c.cfg), now: t0, nextID: 1}
				for i := 0; i < c.ops; i++ {
					if err := d.op(c.maxArrivals); err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
					if err := sameAsRef(d.s, d.ref); err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
					d.peakAlloc = max(d.peakAlloc, d.s.alloc)
					if err := d.s.checkInvariants(); err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
				}
				if d.peak.Departed == 0 || d.peak.Evicted == 0 || d.peak.Launched == 0 || d.peakAlloc < c.cfg.TotalCores()/2 {
					t.Errorf("stream too tame: largest step %+v, peak allocation %d cores", d.peak, d.peakAlloc)
				}
				t.Logf("largest step %+v, peak allocation %d cores, %d IDs recycled", d.peak, d.peakAlloc, d.recycled)
			})
		}
	}
}

// TestAdmitRemoveHeapBounded runs the VM-level engine's pattern, which
// admits and removes VMs but never calls Step, for 100k cycles: the
// departure heap must stay within its bound the whole time.
func TestAdmitRemoveHeapBounded(t *testing.T) {
	s, err := New(Config{Servers: 12, CoresPerServer: 40, MemPerServerGB: 512, TargetUtilization: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 4))
	var running []int
	peak := 0
	for id := 1; id <= 100_000; id++ {
		vm := workload.VM{ID: id, Cores: 1 + rng.IntN(8), MemoryGB: 8, Arrival: t0, Lifetime: time.Hour}
		if s.Admit(vm) {
			running = append(running, id)
		}
		for len(running) > 0 && (len(running) > 40 || rng.IntN(3) == 0) {
			i := rng.IntN(len(running))
			if !s.Remove(running[i]) {
				t.Fatalf("cycle %d: running VM %d not removable", id, running[i])
			}
			running = append(running[:i], running[i+1:]...)
		}
		if limit := 2*s.Running() + departureSlack; len(s.departures) > limit {
			t.Fatalf("cycle %d: departure heap %d entries for %d running (bound %d)", id, len(s.departures), s.Running(), limit)
		}
		peak = max(peak, len(s.departures))
		if id%10_000 == 0 {
			if err := s.checkInvariants(); err != nil {
				t.Fatalf("cycle %d: %v", id, err)
			}
		}
	}
	if bound := 2*40 + departureSlack + 1; peak > bound {
		t.Errorf("departure heap peaked at %d entries, want <= %d", peak, bound)
	}
}

// TestAdmitRemoveAllocFree: at steady state an Admit+Remove cycle, the
// VM-level engine's pattern, allocates nothing on average. A departure
// heap boxing each entry in an interface would cost one allocation per
// Admit.
func TestAdmitRemoveAllocFree(t *testing.T) {
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var ring [2048]int
	id := 1
	cycle := func() {
		slot := &ring[id%len(ring)]
		if *slot != 0 {
			s.Remove(*slot)
		}
		*slot = id
		s.Admit(workload.VM{ID: id, Cores: 1 + id%8, MemoryGB: 8, Arrival: t0, Lifetime: time.Hour})
		id++
	}
	for i := 0; i < 50_000; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(20_000, cycle); allocs != 0 {
		t.Errorf("Admit+Remove allocates %v times per cycle at steady state, want 0", allocs)
	}
}

// BenchmarkSiteStep steps the paper's 700-server site, warmed to its 70%
// steady state, through one solar-shaped day (96 15-minute steps, zero
// power at night) with an Azure-like arrival stream. Restoring the warmed
// state between days is excluded from the timing.
func BenchmarkSiteStep(b *testing.B) {
	const warmDays, steps = 3, 96
	step := 15 * time.Minute
	start := time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	vms, err := workload.Generate(workload.Config{
		Seed:                7,
		Start:               start,
		Duration:            (warmDays + 1) * 24 * time.Hour,
		MeanArrivalsPerHour: 60,
		StableFraction:      0.7,
		LongRunningFraction: 0.3,
		MedianLifetime:      6 * time.Hour,
	})
	if err != nil {
		b.Fatal(err)
	}
	buckets := make([][]workload.VM, (warmDays+1)*steps)
	for _, vm := range vms {
		if i := int(vm.Arrival.Sub(start) / step); i >= 0 && i < len(buckets) {
			buckets[i] = append(buckets[i], vm)
		}
	}
	site, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < warmDays*steps; i++ {
		site.Step(start.Add(time.Duration(i)*step), 1, buckets[i])
	}
	warm := site.State()
	dayStart := warmDays * steps
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		s, err := NewFromState(warm)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for i := 0; i < steps; i++ {
			hour := float64(i) * step.Hours()
			frac := max(0, math.Sin(math.Pi*(hour-6)/12))
			s.Step(start.Add(time.Duration(dayStart+i)*step), frac, buckets[dayStart+i])
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/step")
}

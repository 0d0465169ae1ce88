package cluster

import (
	"math/rand/v2"
	"testing"
	"time"

	"github.com/vbcloud/vb/internal/workload"
)

// TestSiteStateRoundTrip drives a site through a churny history (arrivals,
// power drops, relaunches, departures), snapshots it, rebuilds from the
// snapshot, and then runs both copies forward through the same future:
// every StepResult must match exactly, which only happens if server
// placement, pending-queue order, and the eviction cursor all survived.
func TestSiteStateRoundTrip(t *testing.T) {
	cfg := Config{Servers: 12, CoresPerServer: 40, MemPerServerGB: 512, TargetUtilization: 0.7}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 17))
	nextID := 1
	now := t0
	step := func(site *Site, frac float64, arr []workload.VM) StepResult {
		res := site.Step(now, frac, arr)
		if err := site.checkInvariants(); err != nil {
			t.Fatal(err)
		}
		return res
	}
	fracs := []float64{1, 0.8, 0.3, 0.55, 0.2, 0.9, 0.6}
	for _, f := range fracs {
		var arr []workload.VM
		for i := 0; i < 5+rng.IntN(6); i++ {
			vm := workload.VM{
				ID: nextID, Cores: 1 + rng.IntN(12), MemoryGB: 4 + rng.IntN(60),
				Arrival: now, Lifetime: time.Duration(1+rng.IntN(5)) * time.Hour,
			}
			if rng.IntN(4) == 0 {
				vm.Lifetime = 0 // immortal
			}
			nextID++
			arr = append(arr, vm)
		}
		step(s, f, arr)
		now = now.Add(time.Hour)
	}

	restored, err := NewFromState(s.State())
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if restored.AllocatedCores() != s.AllocatedCores() ||
		restored.PoweredCores() != s.PoweredCores() ||
		restored.Running() != s.Running() ||
		restored.Pending() != s.Pending() {
		t.Fatalf("restored site summary differs: alloc %d/%d powered %d/%d running %d/%d pending %d/%d",
			restored.AllocatedCores(), s.AllocatedCores(),
			restored.PoweredCores(), s.PoweredCores(),
			restored.Running(), s.Running(),
			restored.Pending(), s.Pending())
	}

	// Identical futures must produce identical step results.
	future := []float64{0.25, 0.7, 0.15, 1, 0.4, 0.85}
	for i, f := range future {
		var arr []workload.VM
		for j := 0; j < 4; j++ {
			vm := workload.VM{
				ID: nextID, Cores: 1 + rng.IntN(12), MemoryGB: 4 + rng.IntN(60),
				Arrival: now, Lifetime: time.Duration(1+rng.IntN(4)) * time.Hour,
			}
			nextID++
			arr = append(arr, vm)
		}
		ra := step(s, f, arr)
		rb := step(restored, f, arr)
		if ra != rb {
			t.Fatalf("future step %d diverges: %+v vs %+v", i, ra, rb)
		}
		now = now.Add(time.Hour)
	}
}

// TestNewFromStateRejectsCorrupt ensures malformed snapshots fail loudly.
func TestNewFromStateRejectsCorrupt(t *testing.T) {
	cfg := Config{Servers: 2, CoresPerServer: 8, MemPerServerGB: 64, TargetUtilization: 0.7}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Step(t0, 1.0, []workload.VM{mkVM(1, 4, 16), mkVM(2, 4, 16)})
	good := s.State()

	cases := []struct {
		name   string
		mutate func(st *SiteState)
	}{
		{"server count", func(st *SiteState) { st.Servers = st.Servers[:1] }},
		{"powered range", func(st *SiteState) { st.Powered = cfg.TotalCores() + 1 }},
		{"cursor range", func(st *SiteState) { st.EvictCursor = 2 }},
		{"duplicate vm", func(st *SiteState) {
			st.Servers[1] = append(st.Servers[1], st.Servers[0][0])
		}},
		{"over capacity", func(st *SiteState) {
			st.Servers[0] = append(st.Servers[0], mkVM(9, 8, 16))
		}},
	}
	for _, c := range cases {
		st := good
		st.Servers = append([][]workload.VM(nil), good.Servers...)
		c.mutate(&st)
		if _, err := NewFromState(st); err == nil {
			t.Errorf("%s: corrupt snapshot accepted", c.name)
		}
	}
	if _, err := NewFromState(good); err != nil {
		t.Errorf("good snapshot rejected: %v", err)
	}
}

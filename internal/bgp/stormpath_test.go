package bgp

import (
	"fmt"
	"testing"
	"time"

	"bgpsim/internal/des"
	"bgpsim/internal/mrai"
	"bgpsim/internal/topology"
)

// These tests pin the storm fast lane (the blocked-destination skip) to
// the reference path it replaced, selected through the unexported
// Params.ref seam: production must reproduce the refNoBlockedSkip run
// byte-for-byte (digestRun captures delay, every collector counter, and
// every router's final route) across the scheme variants, seeds, and
// failure sizes the figures exercise. The fast lane is pure
// acceleration; any digest difference is a bug.

// checkFastLane runs p on the refNoBlockedSkip reference path and then on
// the production path, both on sim, and reports any digest difference.
func checkFastLane(t *testing.T, label string, sim *Simulator, nw *topology.Network, fail []int, p Params) {
	t.Helper()
	base := p
	base.ref |= refNoBlockedSkip
	if err := sim.Rebind(nw, base); err != nil {
		t.Fatalf("%s: Rebind: %v", label, err)
	}
	want := digestRun(t, sim, nw, fail)
	if err := sim.Rebind(nw, p); err != nil {
		t.Fatalf("%s: Rebind: %v", label, err)
	}
	if got := digestRun(t, sim, nw, fail); got.summary != want.summary {
		t.Errorf("%s: fast lane diverged from baseline\nbaseline:\n%s\nfast:\n%s", label, want.summary, got.summary)
	}
}

// TestStormFastLaneOutputNeutral byte-diffs the fast lane against the
// reference path across the scheme variants × seeds × failure sizes.
// The no-jitter variant is the densest equal-time stress on the flush
// timers: distinct peers' retries collide on a shared deterministic MRAI.
func TestStormFastLaneOutputNeutral(t *testing.T) {
	rng := des.NewRNG(17)
	nw, err := topology.SkewedNetwork(topology.Skewed7030(40), rng)
	if err != nil {
		t.Fatal(err)
	}
	fails := [][]int{
		topology.NearestNodes(nw, topology.GridCenter(nw), 2, nil),
		topology.NearestNodes(nw, topology.GridCenter(nw), 8, nil),
	}

	sim, err := New(nw, equivalenceParams(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range resetVariants() {
		for seed := int64(1); seed <= 2; seed++ {
			checkFastLane(t, fmt.Sprintf("%s seed %d", v.name, seed), sim, nw, fails[seed%2], equivalenceParams(seed, v.mutate))
		}
	}
}

// TestStormFastLaneDenseStorm pins the fast lane at the fig3 shape the
// smaller digests miss: paper-scale node count, the sweep's lowest MRAI
// (0.25 s), and a 10% geographic failure. At this density, retry timers
// clamped to the current instant collide with queued same-time events
// constantly.
func TestStormFastLaneDenseStorm(t *testing.T) {
	rng := des.NewRNG(41)
	nw, err := topology.SkewedNetwork(topology.Skewed7030(120), rng)
	if err != nil {
		t.Fatal(err)
	}
	fail := topology.NearestNodes(nw, topology.GridCenter(nw), 12, nil)
	mk := func(seed int64) Params {
		p := equivalenceParams(seed, nil)
		p.MRAI = mrai.Constant(250 * time.Millisecond)
		return p
	}
	sim, err := New(nw, mk(1))
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 2; seed++ {
		checkFastLane(t, fmt.Sprintf("dense storm seed %d", seed), sim, nw, fail, mk(seed))
	}
}

// TestStormFastLaneAcrossModes crosses the fast lane with the other
// axes: multi-prefix tables, Gao–Rexford policy and the refColdStart
// reference start — each must still match its own baseline byte-for-byte.
func TestStormFastLaneAcrossModes(t *testing.T) {
	rng := des.NewRNG(31)
	nw, err := topology.SkewedNetwork(topology.Skewed7030(40), rng)
	if err != nil {
		t.Fatal(err)
	}
	fail := topology.NearestNodes(nw, topology.GridCenter(nw), 4, nil)
	pol, err := topology.InferRelationships(nw, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	modes := []struct {
		name   string
		mutate func(*Params)
	}{
		{"multi-prefix", func(p *Params) { p.PrefixesPerAS = 3 }},
		{"policy", func(p *Params) {
			p.Queue = QueueBatched
			p.Policy = pol
		}},
		{"cold-start", func(p *Params) {
			p.Queue = QueueBatched
			p.ref |= refColdStart
		}},
		{"cold-start-multi-prefix", func(p *Params) {
			p.Queue = QueueBatched
			p.ref |= refColdStart
			p.PrefixesPerAS = 2
		}},
	}
	sim, err := New(nw, equivalenceParams(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range modes {
		checkFastLane(t, m.name, sim, nw, fail, equivalenceParams(2, m.mutate))
	}
}

// TestStormFastLaneAllocFree pins that the fast-lane bookkeeping does not
// reintroduce steady-state allocation: repeat trials on a reused
// simulator must allocate no more with the fast lane on than the
// baseline path does (both pay the same fixed per-Rebind costs — policy
// objects and the like — which this differential bound cancels out).
func TestStormFastLaneAllocFree(t *testing.T) {
	rng := des.NewRNG(41)
	nw, err := topology.SkewedNetwork(topology.Skewed7030(30), rng)
	if err != nil {
		t.Fatal(err)
	}
	fail := topology.NearestNodes(nw, topology.GridCenter(nw), 3, nil)
	trialAllocs := func(p Params) float64 {
		sim, err := New(nw, p)
		if err != nil {
			t.Fatal(err)
		}
		// Warm-up trials materialize every lazy structure (blocked
		// columns, scratch buffers, event pool and lane chunks).
		for i := 0; i < 2; i++ {
			if _, err := sim.ConvergeAndFail(fail); err != nil {
				t.Fatal(err)
			}
			if err := sim.Rebind(sim.Network(), p); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(3, func() {
			if err := sim.Rebind(sim.Network(), p); err != nil {
				t.Fatal(err)
			}
			if _, err := sim.ConvergeAndFail(fail); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := equivalenceParams(1, func(pp *Params) { pp.Queue = QueueBatched })
	base.ref |= refNoBlockedSkip
	fast := equivalenceParams(1, func(pp *Params) { pp.Queue = QueueBatched })
	got, want := trialAllocs(fast), trialAllocs(base)
	// The storm loop must not allocate per event — tens of thousands of
	// storm events per trial would blow the slack immediately if it did.
	if got > want+10 {
		t.Fatalf("fast-lane trial allocates %v times per run, baseline %v", got, want)
	}
}

package bgp

import (
	"fmt"
	"testing"

	"bgpsim/internal/des"
	"bgpsim/internal/topology"
)

// These tests pin the incremental decision process to the full scan it
// replaces: with the refFullScan reference path selected (the
// unexported Params.ref seam) and nothing else changed, every observable
// of a run — convergence delay, every collector counter, and every
// router's final route to every destination — must be identical.

// TestIncrementalMatchesFullScanAllVariants runs every scheme variant
// the simulator pool supports (the reset_test.go eight: fifo, batched,
// batched-keep-stale, router-batched, damping, per-dest-mrai,
// dynamic-mrai, zero-delay) in both decision modes over several seeds
// and failure sizes, requiring digest equality.
func TestIncrementalMatchesFullScanAllVariants(t *testing.T) {
	rng := des.NewRNG(17)
	nw, err := topology.SkewedNetwork(topology.Skewed7030(40), rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, nfail := range []int{2, 8} {
		fail := topology.NearestNodes(nw, topology.GridCenter(nw), nfail, nil)
		for _, v := range resetVariants() {
			for seed := int64(1); seed <= 3; seed++ {
				p := equivalenceParams(seed, v.mutate)
				inc, err := New(nw, p)
				if err != nil {
					t.Fatalf("%s seed %d: New: %v", v.name, seed, err)
				}
				got := digestRun(t, inc, nw, fail)

				p.ref |= refFullScan
				full, err := New(nw, p)
				if err != nil {
					t.Fatalf("%s seed %d: New full-scan: %v", v.name, seed, err)
				}
				want := digestRun(t, full, nw, fail)
				if got.summary != want.summary {
					t.Errorf("%s seed %d fail %d: incremental diverged from full scan\nfull:\n%s\nincremental:\n%s",
						v.name, seed, nfail, want.summary, got.summary)
				}
			}
		}
	}
}

// TestIncrementalMatchesFullScanPolicy covers the Gao–Rexford decision
// ranking (relationship class before path length), which changes what
// "strictly better" means for the classify fast path.
func TestIncrementalMatchesFullScanPolicy(t *testing.T) {
	rng := des.NewRNG(23)
	nw, err := topology.SkewedNetwork(topology.Skewed7030(40), rng)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := topology.HierarchicalRelationships(nw)
	if err != nil {
		t.Fatal(err)
	}
	fail := topology.NearestNodes(nw, topology.GridCenter(nw), 4, nil)
	for seed := int64(1); seed <= 3; seed++ {
		p := equivalenceParams(seed, func(pp *Params) { pp.Policy = rel })
		inc, err := New(nw, p)
		if err != nil {
			t.Fatal(err)
		}
		got := digestRun(t, inc, nw, fail)

		p.ref |= refFullScan
		full, err := New(nw, p)
		if err != nil {
			t.Fatal(err)
		}
		want := digestRun(t, full, nw, fail)
		if got.summary != want.summary {
			t.Errorf("policy seed %d: incremental diverged from full scan\nfull:\n%s\nincremental:\n%s",
				seed, want.summary, got.summary)
		}
	}
}

// TestIncrementalMatchesFullScanRecovery adds node recovery — revived
// routers restart with empty RIBs and a cleared best-slot cache — on top
// of the failure path.
func TestIncrementalMatchesFullScanRecovery(t *testing.T) {
	rng := des.NewRNG(29)
	nw, err := topology.SkewedNetwork(topology.Skewed7030(30), rng)
	if err != nil {
		t.Fatal(err)
	}
	fail := topology.NearestNodes(nw, topology.GridCenter(nw), 3, nil)
	run := func(fullScan bool) string {
		p := equivalenceParams(7, nil)
		if fullScan {
			p.ref |= refFullScan
		}
		sim, err := New(nw, p)
		if err != nil {
			t.Fatal(err)
		}
		d := digestRun(t, sim, nw, fail)
		sim.ScheduleRecovery(sim.Now()+SettleMargin, fail)
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		s := d.summary
		for _, dest := range sim.Destinations() {
			for id := 0; id < nw.NumNodes(); id++ {
				if p, ok := sim.LocPath(id, dest); ok {
					s += fmt.Sprintf("n%d d%d %v\n", id, dest, p)
				}
			}
		}
		return s
	}
	if got, want := run(false), run(true); got != want {
		t.Errorf("recovery: incremental diverged from full scan\nfull:\n%s\nincremental:\n%s", want, got)
	}
}

// TestIncrementalFastPathAllocationFree pins that the classify →
// applyWorkingBest no-op path allocates nothing: a converged router
// receiving announcements that do not beat its incumbents must absorb
// the whole batch (Adj-RIB-In update, classification, decision) with
// zero allocations. This is the path a large failure's exploration
// traffic hits millions of times.
func TestIncrementalFastPathAllocationFree(t *testing.T) {
	nw := topology.NewNetwork(5)
	for spoke := 1; spoke <= 4; spoke++ {
		if err := nw.AddLink(0, spoke, false); err != nil {
			t.Fatal(err)
		}
	}
	p := DefaultParams()
	sim, err := New(nw, p)
	if err != nil {
		t.Fatal(err)
	}
	sim.Start()
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	r := sim.routers[0]
	if !r.decide.incremental {
		t.Fatal("incremental path not active under default params")
	}
	// Two distinct worse-than-incumbent paths for spoke 1's prefix,
	// alternately announced by spokes 2 and 3, so every batch flaps the
	// Adj-RIB-In (no no-op dedup) yet never changes the decision.
	batches := [2][]Update{
		{updateFrom(r, 2, 1, Path{2, 900, 1}), updateFrom(r, 3, 1, Path{3, 901, 1})},
		{updateFrom(r, 2, 1, Path{2, 902, 1}), updateFrom(r, 3, 1, Path{3, 903, 1})},
	}
	r.receive.busyStart = sim.eng.Now()
	r.finishProcessing(batches[0]) // warm scratch capacity
	i := 0
	avg := testing.AllocsPerRun(500, func() {
		i++
		r.finishProcessing(batches[i%2])
	})
	if avg != 0 {
		t.Errorf("incremental fast path allocates %.2f objects/op, want 0", avg)
	}
	if _, ok := r.decide.loc.getRef(1); !ok {
		t.Fatal("incumbent withdrawn")
	}
	if want := mustPeer(r.peers, 1); r.decide.bestSlot[1] != int16(want) {
		t.Fatalf("bestSlot[1] = %d, want slot of node 1 (%d)", r.decide.bestSlot[1], want)
	}
}

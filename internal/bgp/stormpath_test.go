package bgp

import (
	"testing"
	"time"

	"bgpsim/internal/des"
	"bgpsim/internal/mrai"
	"bgpsim/internal/topology"
)

// These tests pin the storm fast lane (blocked-destination skip,
// coalesced MRAI timers, second-best cache) to the reference paths it
// replaced, selected through the unexported Params.ref seam: every piece
// — alone and all together — must reproduce the reference run
// byte-for-byte (digestRun captures delay, every collector counter, and
// every router's final route) across the scheme variants, seeds, and
// failure sizes the figures exercise. The fast lane is pure
// acceleration; any digest difference is a bug.

// stormRef selects every reference path the fast lane replaced — the
// differential baseline.
const stormRef = refPerSlotFlush | refNoBlockedSkip | refNoSecondBest

// stormPieces enumerates the fast-lane pieces, each on its own on top of
// the all-reference baseline, plus the all-on production default.
func stormPieces() []struct {
	name string
	ref  refPaths
} {
	return []struct {
		name string
		ref  refPaths
	}{
		{"blocked-skip", stormRef &^ refNoBlockedSkip},
		{"coalesced-mrai", stormRef &^ refPerSlotFlush},
		{"second-best", stormRef &^ refNoSecondBest},
		{"all", 0},
	}
}

// TestStormFastLaneOutputNeutral byte-diffs every fast-lane piece against
// the baseline path across the scheme variants × seeds × failure sizes.
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
			fail := fails[seed%2]
			base := equivalenceParams(seed, v.mutate)
			base.ref = stormRef
			if err := sim.Reset(base); err != nil {
				t.Fatalf("%s seed %d: Reset: %v", v.name, seed, err)
			}
			want := digestRun(t, sim, nw, fail)
			for _, piece := range stormPieces() {
				p := equivalenceParams(seed, v.mutate)
				p.ref = piece.ref
				if err := sim.Reset(p); err != nil {
					t.Fatalf("%s/%s seed %d: Reset: %v", v.name, piece.name, seed, err)
				}
				got := digestRun(t, sim, nw, fail)
				if got.summary != want.summary {
					t.Errorf("%s seed %d: %s diverged from baseline\nbaseline:\n%s\n%s:\n%s",
						v.name, seed, piece.name, want.summary, piece.name, got.summary)
				}
			}
		}
	}
}

// TestStormFastLaneNoJitter pins coalescing in the non-jittered
// configuration: without jitter, distinct peers' retry timers collide at
// the same instant constantly (a shared deterministic MRAI), so this is
// the densest equal-time stress on the reserved-sequence virtual-timer
// argument — output must still match the no-jitter baseline exactly.
func TestStormFastLaneNoJitter(t *testing.T) {
	rng := des.NewRNG(29)
	nw, err := topology.SkewedNetwork(topology.Skewed7030(30), rng)
	if err != nil {
		t.Fatal(err)
	}
	fail := topology.NearestNodes(nw, topology.GridCenter(nw), 3, nil)
	mk := func(coal bool) Params {
		p := equivalenceParams(3, nil)
		p.JitterTimers = false
		p.ref = stormRef
		if coal {
			p.ref &^= refPerSlotFlush
		}
		return p
	}
	sim, err := New(nw, mk(false))
	if err != nil {
		t.Fatal(err)
	}
	want := digestRun(t, sim, nw, fail)
	if err := sim.Reset(mk(true)); err != nil {
		t.Fatal(err)
	}
	if !sim.routers[0].coalesce {
		t.Fatal("coalescing inactive without JitterTimers")
	}
	got := digestRun(t, sim, nw, fail)
	if got.summary != want.summary {
		t.Errorf("no-jitter coalesced-toggle run diverged\nbaseline:\n%s\ngot:\n%s", want.summary, got.summary)
	}
}

// TestStormFastLaneDenseStorm pins the fast lane at the fig3 shape the
// smaller digests miss: paper-scale node count, the sweep's lowest MRAI
// (0.25 s), and a 10% geographic failure. At this density, retry timers
// clamped to the current instant collide with queued same-time events
// constantly, which is exactly the interleaving the reserved-sequence
// virtual timers must reproduce (the original heuristic coalescing
// diverged here while passing every smaller digest).
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
		base := mk(seed)
		base.ref = stormRef
		if err := sim.Reset(base); err != nil {
			t.Fatalf("seed %d: Reset: %v", seed, err)
		}
		want := digestRun(t, sim, nw, fail)
		for _, piece := range stormPieces() {
			p := mk(seed)
			p.ref = piece.ref
			if err := sim.Reset(p); err != nil {
				t.Fatalf("%s seed %d: Reset: %v", piece.name, seed, err)
			}
			got := digestRun(t, sim, nw, fail)
			if got.summary != want.summary {
				t.Errorf("seed %d: %s diverged from baseline in the dense storm\nbaseline:\n%s\n%s:\n%s",
					seed, piece.name, want.summary, piece.name, got.summary)
			}
		}
	}
}

// TestStormFastLaneAcrossModes crosses the full fast lane with the other
// axes: multi-prefix tables and the snapshot warm start — each must still match its own baseline byte-for-byte.
func TestStormFastLaneAcrossModes(t *testing.T) {
	rng := des.NewRNG(31)
	nw, err := topology.SkewedNetwork(topology.Skewed7030(40), rng)
	if err != nil {
		t.Fatal(err)
	}
	fail := topology.NearestNodes(nw, topology.GridCenter(nw), 4, nil)
	modes := []struct {
		name   string
		mutate func(*Params)
	}{
		{"multi-prefix", func(p *Params) { p.PrefixesPerAS = 3 }},
		{"warm-start", func(p *Params) {
			p.Queue = QueueBatched
			p.WarmStart = true
		}},
		{"warm-start-multi-prefix", func(p *Params) {
			p.Queue = QueueBatched
			p.WarmStart = true
			p.PrefixesPerAS = 2
		}},
	}
	sim, err := New(nw, equivalenceParams(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range modes {
		base := equivalenceParams(2, m.mutate)
		base.ref = stormRef
		if err := sim.Reset(base); err != nil {
			t.Fatalf("%s: Reset: %v", m.name, err)
		}
		want := digestRun(t, sim, nw, fail)
		fast := equivalenceParams(2, m.mutate) // zero ref: all pieces on
		if err := sim.Reset(fast); err != nil {
			t.Fatalf("%s: Reset: %v", m.name, err)
		}
		got := digestRun(t, sim, nw, fail)
		if got.summary != want.summary {
			t.Errorf("%s: fast lane diverged from baseline\nbaseline:\n%s\nfast:\n%s",
				m.name, want.summary, got.summary)
		}
	}
}

// TestDecide2AgreesWithDecide checks the two-result scan against the
// single-result scan on real post-failure routing tables: the winner must
// be identical, and the runner-up must be exactly what decide picks with
// the winner's slot disabled. It also audits the committed secondSlot
// cache at quiescence: every valid entry must equal the scan's runner-up.
func TestDecide2AgreesWithDecide(t *testing.T) {
	rng := des.NewRNG(37)
	nw, err := topology.SkewedNetwork(topology.Skewed7030(30), rng)
	if err != nil {
		t.Fatal(err)
	}
	fail := topology.NearestNodes(nw, topology.GridCenter(nw), 3, nil)
	sim, err := New(nw, equivalenceParams(5, func(p *Params) { p.Queue = QueueBatched }))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.ConvergeAndFail(fail); err != nil {
		t.Fatal(err)
	}
	alive := []bool(nil)
	for _, r := range sim.routers {
		if !r.alive {
			continue
		}
		for dest := 0; dest < r.ndests; dest++ {
			best1, slot1, ok1 := decide(r.adjIn, dest, r.peers, r.peerAlive, nil, sim.params.Policy, r.id)
			best2, slot2, second, ok2 := decide2(r.adjIn, dest, r.peers, r.peerAlive, sim.params.Policy, r.id)
			if ok1 != ok2 || slot1 != slot2 || (ok1 && !best1.sameAs(best2)) {
				t.Fatalf("n%d d%d: decide2 winner differs: (%v,%d,%v) vs (%v,%d,%v)",
					r.id, dest, best1, slot1, ok1, best2, slot2, ok2)
			}
			// The runner-up is what the scan picks with the winner dead.
			alive = append(alive[:0], r.peerAlive...)
			wantSecond := secondNone
			if ok1 {
				alive[slot1] = false
				if _, s2, ok := decide(r.adjIn, dest, r.peers, alive, nil, sim.params.Policy, r.id); ok {
					wantSecond = int16(s2)
				}
			}
			if second != wantSecond {
				t.Fatalf("n%d d%d: decide2 runner-up %d, want %d", r.id, dest, second, wantSecond)
			}
			if cached := r.secondSlot[dest]; cached >= 0 && r.bestSlot[dest] >= 0 && cached != wantSecond {
				t.Fatalf("n%d d%d: cached secondSlot %d, scan says %d", r.id, dest, cached, wantSecond)
			}
		}
	}
}

// TestStormFastLaneAllocFree pins that the fast-lane bookkeeping does not
// reintroduce steady-state allocation: repeat trials on a reused
// simulator must allocate no more with the fast lane on than the
// baseline path does (both pay the same fixed per-Reset costs — policy
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
		// columns, scratch buffers, event and delivery pools).
		for i := 0; i < 2; i++ {
			if _, err := sim.ConvergeAndFail(fail); err != nil {
				t.Fatal(err)
			}
			if err := sim.Reset(p); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(3, func() {
			if err := sim.Reset(p); err != nil {
				t.Fatal(err)
			}
			if _, err := sim.ConvergeAndFail(fail); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := equivalenceParams(1, func(pp *Params) { pp.Queue = QueueBatched })
	base.ref = stormRef
	fast := equivalenceParams(1, func(pp *Params) { pp.Queue = QueueBatched })
	got, want := trialAllocs(fast), trialAllocs(base)
	// The storm loop must not allocate per event — tens of thousands of
	// storm events per trial would blow the slack immediately if it did.
	if got > want+10 {
		t.Fatalf("fast-lane trial allocates %v times per run, baseline %v", got, want)
	}
}

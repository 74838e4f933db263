package bgp

import (
	"fmt"
	"testing"
	"time"

	"bgpsim/internal/des"
	"bgpsim/internal/mrai"
	"bgpsim/internal/topology"
)

// These tests pin the Reset contract: a Simulator rewound with Reset
// must be indistinguishable — measurement for measurement, route for
// route — from one freshly constructed with New on the same network.
// The sweep layer's simulator pool depends on this equivalence holding
// for every scheme the figures exercise, so the variants below cover
// each queue discipline, damping, per-destination MRAI, and the dynamic
// MRAI ladder.

// runDigest is everything observable about one ConvergeAndFail run.
type runDigest struct {
	delay   time.Duration
	summary string
}

// digestRun executes one failure experiment and captures the full
// observable outcome: convergence delay, every collector counter, and
// every router's final route to every destination.
func digestRun(t *testing.T, sim *Simulator, nw *topology.Network, fail []int) runDigest {
	t.Helper()
	delay, err := sim.ConvergeAndFail(fail)
	if err != nil {
		t.Fatal(err)
	}
	col := sim.Collector()
	s := fmt.Sprintf("delay=%v msgs=%d ann=%d wd=%d proc=%d disc=%d rc=%d now=%v\n",
		delay, col.Messages(), col.Announcements, col.Withdrawals,
		col.Processed, col.Discarded, col.RouteChanges(), sim.Now())
	for _, dest := range sim.Destinations() {
		for id := 0; id < nw.NumNodes(); id++ {
			if p, ok := sim.LocPath(id, dest); ok {
				s += fmt.Sprintf("n%d d%d %v\n", id, dest, p)
			}
		}
	}
	return runDigest{delay: delay, summary: s}
}

// resetVariants enumerates the parameter shapes whose Reset transitions
// the pool must survive, including discipline changes that force the
// inbox implementation to be swapped.
func resetVariants() []struct {
	name   string
	mutate func(*Params)
} {
	return []struct {
		name   string
		mutate func(*Params)
	}{
		{"fifo", nil},
		{"batched", func(p *Params) { p.Queue = QueueBatched }},
		{"batched-keep-stale", func(p *Params) {
			p.Queue = QueueBatched
			p.BatchDiscardStale = false
		}},
		{"router-batched", func(p *Params) { p.Queue = QueueRouterBatch }},
		{"damping", func(p *Params) { p.Damping = DefaultDamping() }},
		{"per-dest-mrai", func(p *Params) { p.PerDestinationMRAI = true }},
		{"dynamic-mrai", func(p *Params) { p.MRAI = mrai.PaperDynamic() }},
		// Delivery and processing completion land at the same instant, so
		// nearly every event ties on time and only seq orders them: the
		// densest (at, seq) tie-break case for every digest suite.
		{"zero-delay", func(p *Params) {
			p.ProcMin, p.ProcMax = 0, 0
			p.IntDelay = 0
		}},
	}
}

func equivalenceParams(seed int64, mutate func(*Params)) Params {
	p := DefaultParams()
	p.MRAI = mrai.Constant(500 * time.Millisecond)
	p.Seed = seed
	if mutate != nil {
		mutate(&p)
	}
	return p
}

// TestResetMatchesFreshNew reruns every scheme variant twice — once on a
// freshly constructed simulator, once on one shared simulator that is
// Reset between runs (crossing variant boundaries, so leftover state
// from a different discipline would be caught) — and requires identical
// outcomes.
func TestResetMatchesFreshNew(t *testing.T) {
	rng := des.NewRNG(11)
	nw, err := topology.SkewedNetwork(topology.Skewed7030(40), rng)
	if err != nil {
		t.Fatal(err)
	}
	fail := topology.NearestNodes(nw, topology.GridCenter(nw), 4, nil)

	reused, err := New(nw, equivalenceParams(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range resetVariants() {
		for seed := int64(1); seed <= 3; seed++ {
			p := equivalenceParams(seed, v.mutate)
			fresh, err := New(nw, p)
			if err != nil {
				t.Fatalf("%s seed %d: New: %v", v.name, seed, err)
			}
			want := digestRun(t, fresh, nw, fail)
			if err := reused.Reset(p); err != nil {
				t.Fatalf("%s seed %d: Reset: %v", v.name, seed, err)
			}
			got := digestRun(t, reused, nw, fail)
			if got.summary != want.summary {
				t.Errorf("%s seed %d: Reset run diverged from fresh New\nfresh:\n%s\nreset:\n%s",
					v.name, seed, want.summary, got.summary)
			}
		}
	}
}

// TestResetAfterRecovery pins that Reset rewinds a simulator whose
// previous run included node failures AND recoveries — the dirtiest
// state a pooled simulator can carry (revived routers, damping history,
// re-armed timers).
func TestResetAfterRecovery(t *testing.T) {
	rng := des.NewRNG(13)
	nw, err := topology.SkewedNetwork(topology.Skewed7030(30), rng)
	if err != nil {
		t.Fatal(err)
	}
	fail := topology.NearestNodes(nw, topology.GridCenter(nw), 3, nil)

	p := equivalenceParams(5, func(pp *Params) { pp.Damping = DefaultDamping() })
	reused, err := New(nw, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reused.ConvergeAndFail(fail); err != nil {
		t.Fatal(err)
	}
	reused.ScheduleRecovery(reused.Now()+SettleMargin, fail)
	if err := reused.Run(); err != nil {
		t.Fatal(err)
	}

	p2 := equivalenceParams(9, nil)
	fresh, err := New(nw, p2)
	if err != nil {
		t.Fatal(err)
	}
	want := digestRun(t, fresh, nw, fail)
	if err := reused.Reset(p2); err != nil {
		t.Fatal(err)
	}
	got := digestRun(t, reused, nw, fail)
	if got.summary != want.summary {
		t.Errorf("Reset after recovery diverged from fresh New\nfresh:\n%s\nreset:\n%s",
			want.summary, got.summary)
	}
}

package bgp

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"bgpsim/internal/des"
	"bgpsim/internal/mrai"
	"bgpsim/internal/topology"
)

// These tests pin the Rebind contract: a Simulator rebound to the network
// it has, or moved to another one, must be indistinguishable —
// measurement for measurement, route for route — from one freshly
// constructed with New on that network. The sweep layer's simulator pool
// depends on this equivalence holding for every scheme the figures
// exercise and every pair of worlds a sweep can visit in turn, so the
// variants below cover each queue discipline, damping, per-destination
// MRAI, and the dynamic MRAI ladder, and the worlds further down every
// way two networks can differ.

// runDigest is everything observable about one ConvergeAndFail run.
type runDigest struct {
	delay   time.Duration
	summary string
}

// digestRun executes one failure experiment and captures the full
// observable outcome: convergence delay, every collector counter, and
// every router's final route to every destination. Every run it digests
// must also be quiescent and, unless damped, end on the post-failure
// fixpoint (assertPostFailureFixpoint) and conserve its messages
// (assertConserved), and no update it sends may carry
// its receiver's AS (refInvariants; the digest helpers set the bit on
// every simulator they run, which changes no output).
func digestRun(t *testing.T, sim *Simulator, nw *topology.Network, fail []int) runDigest {
	t.Helper()
	sim.params.ref |= refInvariants
	delay, err := sim.ConvergeAndFail(fail)
	if err != nil {
		t.Fatal(err)
	}
	assertQuiescent(t, sim)
	assertPostFailureFixpoint(t, sim, fail)
	assertConserved(t, sim)
	col := sim.Collector()
	var s strings.Builder
	fmt.Fprintf(&s, "delay=%v msgs=%d ann=%d wd=%d proc=%d disc=%d rc=%d now=%v\n",
		delay, col.Messages(), col.Announcements, col.Withdrawals,
		col.Processed, col.Discarded, col.RouteChanges(), sim.Now())
	for _, dest := range sim.Destinations() {
		for id := 0; id < nw.NumNodes(); id++ {
			if p, ok := sim.LocPath(id, dest); ok {
				fmt.Fprintf(&s, "n%d d%d %v\n", id, dest, p)
			}
		}
	}
	return runDigest{delay: delay, summary: s.String()}
}

// assertQuiescent checks what Run returning means: nothing is in flight.
// No update is queued, being processed or on a link — the path table's
// in-flight roots are empty — no router's CPU is busy, no router, alive
// or dead, has a destination pending for any peer (with the engine empty
// no flush is armed, so a pending bit would be an advertisement lost) or
// still holds a flush handle (the event it names has fired or been
// drained, so the handle points at a recycled des.Event), and no event
// is left. digestRun and churnDigest call it, so every digest suite
// checks it on every configuration it runs.
func assertQuiescent(t *testing.T, sim *Simulator) {
	t.Helper()
	refs := 0
	if n := sim.forEachInFlight(func(*routeRef) { refs++ }); n != 0 || refs != 0 {
		t.Errorf("quiescent simulator holds %d updates in flight (%d refs visited)", n, refs)
	}
	for _, r := range sim.routers {
		if r.receive.inbox.Len() != 0 {
			t.Errorf("router %d: %d updates queued at quiescence", r.id, r.receive.inbox.Len())
		}
		if r.receive.busy() || r.receive.proc.batch != nil {
			t.Errorf("router %d (alive=%v): busy=%v with a batch of %d at quiescence", r.id, r.alive, r.receive.busy(), len(r.receive.proc.batch))
		}
		for slot, pend := range r.flush.pending {
			if pend.any() {
				t.Errorf("router %d (alive=%v): %d destinations pending for peer n%d at quiescence",
					r.id, r.alive, pend.count(), r.peers[slot].Node)
			}
		}
		for slot, timer := range r.flush.timers {
			if timer.ev != nil {
				t.Errorf("router %d (alive=%v): flush for peer n%d still armed at quiescence",
					r.id, r.alive, r.peers[slot].Node)
			}
		}
	}
	if n := sim.eng.Pending(); n != 0 {
		t.Errorf("%d events pending at quiescence", n)
	}
}

// resetVariants enumerates the parameter shapes whose Rebind transitions
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
		// Unjittered MRAI restarts: distinct peers' flush retries share
		// expiry instants and collide in the queue.
		{"no-jitter", func(p *Params) { p.JitterTimers = false }},
	}
}

// equivalenceParams is the digest suites' base parameter set, with the
// refInvariants check on.
func equivalenceParams(seed int64, mutate func(*Params)) Params {
	p := DefaultParams()
	p.MRAI = mrai.Constant(500 * time.Millisecond)
	p.Seed = seed
	p.ref = refInvariants
	if mutate != nil {
		mutate(&p)
	}
	return p
}

// TestResetMatchesFreshNew reruns every scheme variant twice — once on a
// freshly constructed simulator, once on one shared simulator that is
// rebound between runs (crossing variant boundaries, so leftover state
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
			if err := reused.Rebind(nw, p); err != nil {
				t.Fatalf("%s seed %d: Rebind: %v", v.name, seed, err)
			}
			got := digestRun(t, reused, nw, fail)
			if got.summary != want.summary {
				t.Errorf("%s seed %d: rebound run diverged from fresh New\nfresh:\n%s\nreset:\n%s",
					v.name, seed, want.summary, got.summary)
			}
		}
	}
}

// TestResetAfterRecovery pins that Rebind rewinds a simulator whose
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
	if err := reused.Rebind(nw, p2); err != nil {
		t.Fatal(err)
	}
	got := digestRun(t, reused, nw, fail)
	if got.summary != want.summary {
		t.Errorf("Rebind after recovery diverged from fresh New\nfresh:\n%s\nreset:\n%s",
			want.summary, got.summary)
	}
}

// rebindWorld is one stop on a pooled simulator's way through a sweep: a
// network, the prefix count and policy its trials run with, and the
// routers that fail.
type rebindWorld struct {
	name     string
	net      *topology.Network
	prefixes int
	policy   *topology.Relationships
	fail     []int
}

func (w rebindWorld) params(seed int64, mutate func(*Params)) Params {
	p := equivalenceParams(seed, mutate)
	p.PrefixesPerAS = w.prefixes
	p.Policy = w.policy
	return p
}

func skewedWorld(t *testing.T, name string, n int, seed int64) rebindWorld {
	t.Helper()
	nw, err := topology.SkewedNetwork(topology.Skewed7030(n), des.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return rebindWorld{name: name, net: nw, fail: topology.NearestNodes(nw, topology.GridCenter(nw), n/10, nil)}
}

// rebindWorlds is the tour every Rebind test walks with one simulator.
// Each step is a transition a sweep can make: small to large and back,
// same size with other wiring and degrees, one prefix per AS to several
// and back (on the same network, where only the destination axis moves,
// and onto another), flat to multi-router ASes with IBGP sessions and
// back, and both ways to a world of over 4 096 routers, whose back slots
// checkWiring pins like every other world's.
func rebindWorlds(t *testing.T) []rebindWorld {
	t.Helper()
	small := skewedWorld(t, "small", 20, 21)
	large := skewedWorld(t, "large", 40, 22)
	rewired := skewedWorld(t, "rewired", 40, 23)
	multi := large
	multi.name, multi.prefixes = "multi-prefix", 3

	rnw, err := topology.Realistic(topology.RealisticSpec{
		NumAS: 12, AvgDegree: 2.5, MaxDegree: 5, MinASSize: 1, MaxASSize: 4, SizeAlpha: 1.2,
	}, des.NewRNG(24))
	if err != nil {
		t.Fatal(err)
	}
	realistic := rebindWorld{name: "realistic", net: rnw,
		fail: topology.NearestNodes(rnw, topology.GridCenter(rnw), 3, nil)}
	internal := 0
	for id := 0; id < rnw.NumNodes(); id++ {
		for _, nb := range rnw.Neighbors(id) {
			if nb.Internal {
				internal++
			}
		}
	}
	if internal == 0 || rnw.NumNodes() == rnw.NumASes() {
		t.Fatalf("realistic world has %d routers in %d ASes and %d IBGP adjacencies; want multi-router ASes",
			rnw.NumNodes(), rnw.NumASes(), internal)
	}

	// The small world again, followed by enough routers without a session
	// to make 4 104. They join the ASes of the first 20, which keeps the
	// destination space at 20: a world this wide, cheap enough to run
	// under every variant.
	wide := topology.NewNetwork(4096 + 8)
	for id := 0; id < small.net.NumNodes(); id++ {
		wide.SetPos(id, small.net.Node(id).Pos)
		for _, nb := range small.net.Neighbors(id) {
			if id < nb.ID {
				if err := wide.AddLink(id, nb.ID, false); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for id := small.net.NumNodes(); id < wide.NumNodes(); id++ {
		wide.SetAS(id, id%small.net.NumNodes())
	}
	past := rebindWorld{name: "wide", net: wide, fail: small.fail}

	multiSmall := small
	multiSmall.name, multiSmall.prefixes = "small-multi-prefix", 2
	return []rebindWorld{small, large, rewired, small, multi, large, multiSmall, realistic, rewired, past, realistic, past, small}
}

// rebindDigest is digestRun plus what a run leaves in the simulator's own
// bookkeeping: whole-run totals, queue high-water marks, and how many
// paths the table registered, which pins the order refs were handed out
// in as closely as anything observable can.
func rebindDigest(t *testing.T, sim *Simulator, w rebindWorld) string {
	t.Helper()
	d := digestRun(t, sim, w.net, w.fail)
	col := sim.Collector()
	ps := sim.PathTableStats()
	return fmt.Sprintf("total=%d/%d maxq=%d/%d paths=%d/%d per-node=%v\n%s",
		col.TotalMessages, col.TotalProcessed, col.MaxQueueLen, col.TotalMaxQueueLen,
		ps.Registered, ps.Live, col.PerNodeSent(), d.summary)
}

// checkRebound compares one run on a rebound simulator with the same run
// on a fresh one.
func checkRebound(t *testing.T, reused *Simulator, w rebindWorld, p Params) {
	t.Helper()
	fresh, err := New(w.net, p)
	if err != nil {
		t.Fatalf("%s: New: %v", w.name, err)
	}
	want := rebindDigest(t, fresh, w)
	if err := reused.Rebind(w.net, p); err != nil {
		t.Fatalf("%s: Rebind: %v", w.name, err)
	}
	if reused.Network() != w.net {
		t.Fatalf("%s: Rebind left the simulator on another network", w.name)
	}
	checkWiring(t, w.name, reused, fresh)
	if got := rebindDigest(t, reused, w); got != want {
		t.Errorf("%s: rebound run diverged from fresh New\nfresh:\n%s\nrebound:\n%s", w.name, clip(want), clip(got))
	}
}

// checkWiring compares what Rebind rewires with what New builds, entry by
// entry, peers with their back slots included, and checks that every
// session's back slot names it at the other end: the slot an update
// carries must be the receiver's slot of its sender.
func checkWiring(t *testing.T, world string, got, want *Simulator) {
	t.Helper()
	if got.ndests != want.ndests || got.nprefix != want.nprefix || !slices.Equal(got.origins, want.origins) {
		t.Errorf("%s: destination space %d x %d, origins %v; fresh %d x %d, %v", world,
			got.ndests, got.nprefix, got.origins, want.ndests, want.nprefix, want.origins)
	}
	if len(got.routers) != len(want.routers) {
		t.Fatalf("%s: %d routers, fresh %d", world, len(got.routers), len(want.routers))
	}
	for id, w := range want.routers {
		g := got.routers[id]
		if g.id != w.id || g.as != w.as || g.sim != got || g.ndests != w.ndests ||
			!slices.Equal(g.peers, w.peers) {
			t.Fatalf("%s: router %d wired as {id %d as %d peers %v}\nfresh {id %d as %d peers %v}",
				world, id, g.id, g.as, g.peers, w.id, w.as, w.peers)
		}
		for slot, p := range g.peers {
			if back := got.routers[p.Node].peers[p.Back]; back.Node != g.id {
				t.Fatalf("%s: router %d slot %d (node %d) has back slot %d, which names node %d",
					world, id, slot, p.Node, p.Back, back.Node)
			}
		}
		for _, n := range []int{len(g.peerAlive), len(g.flush.timers),
			len(g.flush.advertised), len(g.flush.pending), len(g.flush.blocked), len(g.receive.adjIn.slots)} {
			if n != len(w.peers) {
				t.Fatalf("%s: router %d has a per-slot array of %d for %d peers", world, id, n, len(w.peers))
			}
		}
		for slot := range g.flush.timers {
			if g.flush.timers[slot].task != (flushTask{r: g, slot: slot}) {
				t.Fatalf("%s: router %d slot %d flushes %+v", world, id, slot, g.flush.timers[slot].task)
			}
		}
	}
}

// clip keeps a failing digest readable: the counters and the first routes.
func clip(s string) string {
	if lines := strings.SplitAfterN(s, "\n", 12); len(lines) == 12 {
		return strings.Join(lines[:11], "") + "...\n"
	}
	return s
}

// TestRebindMatchesFreshNew walks one simulator per scheme variant
// through the whole tour of worlds, and a last one through every variant
// at every stop, so that a transition meets the leftovers of every
// discipline as well as of every network.
func TestRebindMatchesFreshNew(t *testing.T) {
	worlds := rebindWorlds(t)
	crossing, err := New(worlds[0].net, worlds[0].params(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	for vi, v := range resetVariants() {
		t.Run(v.name, func(t *testing.T) {
			reused, err := New(worlds[len(worlds)-2].net, worlds[len(worlds)-2].params(1, v.mutate))
			if err != nil {
				t.Fatal(err)
			}
			for wi, w := range worlds {
				p := w.params(int64(1+wi), v.mutate)
				checkRebound(t, reused, w, p)
				if wi%len(resetVariants()) == vi {
					checkRebound(t, crossing, w, p)
				}
			}
		})
	}
}

// TestRebindRefusalLeavesSimulatorUntouched pins that a network or
// parameter set Rebind refuses costs the simulator nothing: it still
// runs, on the network it had, as if never asked.
func TestRebindRefusalLeavesSimulatorUntouched(t *testing.T) {
	worlds := rebindWorlds(t)
	small, large := worlds[0], worlds[1]
	p := small.params(4, nil)
	sim, err := New(small.net, p)
	if err != nil {
		t.Fatal(err)
	}
	want := rebindDigest(t, sim, small)

	if err := sim.Rebind(small.net, p); err != nil {
		t.Fatal(err)
	}
	unpackable := large.net.Clone()
	unpackable.SetAS(7, 1<<40)
	// A session is internal exactly when both ends are in one AS.
	mismatched := func(as1 int, internal bool) *topology.Network {
		nw := topology.NewNetwork(3)
		nw.SetAS(1, as1)
		if err := nw.AddLink(0, 1, internal); err != nil {
			t.Fatal(err)
		}
		if err := nw.AddLink(1, 2, false); err != nil {
			t.Fatal(err)
		}
		return nw
	}
	bad := p
	bad.MRAI = nil
	for name, try := range map[string]func() error{
		"unpackable AS number":       func() error { return sim.Rebind(unpackable, p) },
		"empty network":              func() error { return sim.Rebind(topology.NewNetwork(0), p) },
		"invalid parameters":         func() error { return sim.Rebind(large.net, bad) },
		"internal session across AS": func() error { return sim.Rebind(mismatched(1, true), p) },
		"external session within AS": func() error { return sim.Rebind(mismatched(0, false), p) },
	} {
		if err := try(); err == nil {
			t.Errorf("%s: Rebind accepted it", name)
		}
	}
	if sim.Network() != small.net || len(sim.routers) != small.net.NumNodes() {
		t.Fatalf("refused Rebind moved the simulator: %d routers", len(sim.routers))
	}
	if got := rebindDigest(t, sim, small); got != want {
		t.Errorf("run after refused Rebinds diverged\nbefore:\n%s\nafter:\n%s", clip(want), clip(got))
	}
}

// TestRebindWarmStartAndPolicy pins the two things Rebind fits to the
// network and the policy: the snapshot solver the start is installed
// from and the Gao–Rexford relationships must be those of the world at
// hand, with and without each other, in the installed start ("warm")
// and in the refColdStart reference ("cold"). The tour adds a realistic
// world (multi-router ASes with IBGP) to its first six stops.
func TestRebindWarmStartAndPolicy(t *testing.T) {
	var worlds []rebindWorld
	tour := rebindWorlds(t)
	for _, w := range append(tour[:6:6], tour[7]) {
		worlds = append(worlds, w)
		pol, err := topology.InferRelationships(w.net, 1.5)
		if err != nil {
			t.Fatal(err)
		}
		w.name, w.policy = w.name+"+policy", pol
		worlds = append(worlds, w)
	}
	for _, warm := range []bool{false, true} {
		name := "cold"
		if warm {
			name = "warm"
		}
		t.Run(name, func(t *testing.T) {
			var reused *Simulator
			for wi, w := range worlds {
				p := w.params(int64(20+wi), nil)
				if !warm {
					p.ref |= refColdStart
				}
				if reused == nil {
					var err error
					if reused, err = New(w.net, p); err != nil {
						t.Fatal(err)
					}
				}
				checkRebound(t, reused, w, p)
			}
		})
	}
}

package bgp

import (
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"bgpsim/internal/des"
	"bgpsim/internal/mrai"
	"bgpsim/internal/topology"
	"bgpsim/internal/trace"
)

// These tests pin the allocation behaviour of the inbox hot path so a
// future change cannot silently reintroduce per-update garbage. The
// enqueue/flush cycle runs once per BGP message — hundreds of thousands
// of times per simulation — which is why the bounds are exact zeros.

// TestInboxSteadyStateAllocationFree pins every discipline's
// steady-state cycle: with popped cells going back on the slab's free
// chain and every batch copied into the one batch array, a push/pop
// round trip allocates nothing once the slab, the key ring, the batch
// array and (under router batch) the seen set have been through it once.
func TestInboxSteadyStateAllocationFree(t *testing.T) {
	for _, row := range inboxRows {
		t.Run(row.name, func(t *testing.T) {
			q := newTestInbox(row.queue, row.discard)
			// Two updates a cycle: one destination from two peers (FIFO
			// pops them one at a time), or, under router batch, two
			// destinations from one peer.
			u1, u2 := ann(1, 10, 1), ann(2, 10, 2)
			want := 2
			switch row.queue {
			case QueueFIFO:
				want = 1
			case QueueRouterBatch:
				u2 = ann(1, 11, 2)
			}
			cycle := func() {
				q.Push(u1)
				q.Push(u2)
				for n := 0; n < 2; n += want {
					if batch := q.Pop(); len(batch) != want {
						t.Fatalf("popped %d updates, want %d", len(batch), want)
					}
				}
				q.TakeDiscarded()
			}
			cycle() // warm
			if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
				t.Errorf("push/pop allocates %.2f objects/op, want 0", avg)
			}
		})
	}
}

// highWater is a trace.Tracer recording the most updates the
// simulator's inboxes ever held at once. enqueue emits KindReceive right
// after Push, the only place an inbox's Len grows.
type highWater struct {
	sim  *Simulator
	peak int
}

// Trace reads the simulator-wide queue length on every arrival.
func (h *highWater) Trace(e trace.Event) {
	if e.Kind == trace.KindReceive {
		h.peak = max(h.peak, queuedUpdates(h.sim))
	}
}

// queuedUpdates returns how many updates the inboxes of s hold: the cells
// of its slab in use.
func queuedUpdates(s *Simulator) int {
	n := 0
	for _, r := range s.routers {
		n += r.receive.inbox.Len()
	}
	return n
}

// TestInboxAllocatesItsHighWaterOnce pins what the cell slab is for: over
// a whole trial on 120 routers from the refColdStart reference — initial
// convergence as events, a 10% failure, re-convergence, the heaviest load
// a trial puts on the inboxes — everything the inboxes hold that grows
// with traffic (the slab's cells and chunk table, each router's key ring
// and batch array) stays within 1.5 × 16 bytes per update of the most
// updates queued at once across the simulator, under FIFO and under
// batch+dynamic alike. A slab per router held the sum of every router's
// own peak, and an array per pending destination several times that.
func TestInboxAllocatesItsHighWaterOnce(t *testing.T) {
	nw, err := topology.SkewedNetwork(topology.Skewed7030(120), des.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Params)
	}{
		{"fifo", func(p *Params) { p.Queue = QueueFIFO }},
		{"batched", func(p *Params) { p.Queue, p.MRAI = QueueBatched, mrai.PaperDynamic() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hw := &highWater{}
			sim, err := New(nw, equivalenceParams(1, func(p *Params) {
				tc.mutate(p)
				p.ref |= refColdStart
				p.Tracer = hw
			}))
			if err != nil {
				t.Fatal(err)
			}
			hw.sim = sim
			if _, err := sim.ConvergeAndFail(topology.NearestNodes(nw, topology.GridCenter(nw), 12, nil)); err != nil {
				t.Fatal(err)
			}
			slab := &sim.cells
			queued := hw.peak
			held := len(slab.chunks)*int(unsafe.Sizeof(*slab.chunks[0])) + cap(slab.chunks)*int(unsafe.Sizeof(slab.chunks[0]))
			for _, r := range sim.routers {
				q := &r.receive.inbox
				held += cap(q.order)*int(unsafe.Sizeof(q.order[0])) + cap(q.out)*int(unsafe.Sizeof(Update{}))
			}
			t.Logf("at most %d updates queued at once, the slab issued %d cells, inboxes hold %d B (%.2f x 16 B each)", queued, slab.n, held, float64(held)/float64(16*queued))
			if queued < 10*len(sim.routers) {
				t.Fatalf("at most %d updates queued at once: the trial does not load the inboxes", queued)
			}
			if held > 16*queued*3/2 {
				t.Errorf("inboxes hold %d B for %d queued updates, want <= %d", held, queued, 16*queued*3/2)
			}
		})
	}
}

// TestDeadRouterReturnsItsCells pins that a router's death hands its
// queued updates' cells back to the simulator's slab. Mid-storm, the
// routers holding the longest queues are killed; the storm runs out, and
// then one live router is handed a burst of as many updates as the slab
// has ever issued. Every cell that death had not returned would be carved
// anew on top of the burst, so the slab's issued count must still not
// exceed the most updates ever queued at once.
func TestDeadRouterReturnsItsCells(t *testing.T) {
	nw, err := topology.SkewedNetwork(topology.Skewed7030(60), des.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	hw := &highWater{}
	sim, err := New(nw, equivalenceParams(1, func(p *Params) { p.Tracer = hw }))
	if err != nil {
		t.Fatal(err)
	}
	hw.sim = sim
	if err := sim.ConvergeInitial(); err != nil {
		t.Fatal(err)
	}
	at := sim.Now() + SettleMargin
	sim.ScheduleFailure(at, topology.NearestNodes(nw, topology.GridCenter(nw), 6, nil))
	for queuedUpdates(sim) < 100 {
		at += 10 * time.Millisecond
		if err := sim.RunUntil(at); err != nil {
			t.Fatal(err)
		}
		if sim.eng.Pending() == 0 {
			t.Fatal("the storm ended before 100 updates were queued at once")
		}
	}
	byQueue := slices.Clone(sim.routers)
	slices.SortStableFunc(byQueue, func(a, b *router) int { return b.receive.inbox.Len() - a.receive.inbox.Len() })
	var victims []int
	dropped := 0
	for _, r := range byQueue[:4] {
		victims = append(victims, r.id)
		dropped += r.receive.inbox.Len()
	}
	if dropped == 0 {
		t.Fatal("the routers killed hold no queued updates")
	}
	sim.ScheduleFailure(at, victims)
	if err := sim.RunUntil(at); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}

	slab := &sim.cells
	burst := int(slab.n)
	q := &sim.routers[slices.IndexFunc(sim.routers, func(r *router) bool { return r.alive })].receive.inbox
	for i := range burst {
		q.Push(Update{Dest: int32(i % sim.ndests)})
	}
	peak := max(hw.peak, queuedUpdates(sim))
	t.Logf("killed routers %v holding %d queued updates; a burst of %d: the slab issued %d cells, at most %d were queued at once", victims, dropped, burst, slab.n, peak)
	if int(slab.n) > peak {
		t.Errorf("the slab issued %d cells for at most %d updates queued at once: %d cells of dead routers never came back", slab.n, peak, int(slab.n)-peak)
	}
}

// TestStartAllocatesNothingAfterRebind pins that scheduling the
// originations costs a reused simulator nothing: the tasks come from an
// array kept across Rebind and the events from the engine's free list,
// where a closure per destination cost 32 B each, 6 000 of them on a
// 50-prefix trial.
func TestStartAllocatesNothingAfterRebind(t *testing.T) {
	nw, err := topology.SkewedNetwork(topology.Skewed7030(30), des.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	params := equivalenceParams(1, func(p *Params) { p.PrefixesPerAS = 4 })
	sim, err := New(nw, params)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.ConvergeInitial(); err != nil {
		t.Fatal(err)
	}
	// Mallocs is process-wide, and now and then the runtime allocates a
	// few objects of its own inside the window, so the pin is on the
	// quietest of the runs: anything Start itself allocates is in all.
	var ms runtime.MemStats
	least := ^uint64(0)
	for run := 0; run < 8; run++ {
		params.Seed++
		if err := sim.Rebind(nw, params); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		sim.Start()
		runtime.ReadMemStats(&ms)
		least = min(least, ms.Mallocs-before)
		if got := sim.eng.Pending(); got != 30*4 {
			t.Fatalf("Start scheduled %d originations, want %d", got, 30*4)
		}
	}
	if least != 0 {
		t.Errorf("Start allocated at least %d objects on each of 8 rebound simulators, want 0", least)
	}
}

// TestConvergeInitialAllocatesNothingAfterRebind pins that installing the
// converged state costs a pooled simulator nothing once its buffers have
// grown: the solver, the install's scratch, the path table and the RIBs
// are all refitted by Rebind. Sweeps run one pooled simulator over a
// fresh world per cell, so the worlds alternate here — two of the same
// size, with and without Gao–Rexford policy. What Rebind itself
// allocates (the per-router MRAI policies) is measured alone and
// subtracted.
func TestConvergeInitialAllocatesNothingAfterRebind(t *testing.T) {
	var nets []*topology.Network
	var pols []*topology.Relationships
	for seed := int64(1); seed <= 2; seed++ {
		nw, err := topology.SkewedNetwork(topology.Skewed7030(40), des.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		pol, err := topology.InferRelationships(nw, 1.5)
		if err != nil {
			t.Fatal(err)
		}
		nets, pols = append(nets, nw), append(pols, pol)
	}
	for _, policy := range []bool{false, true} {
		params := equivalenceParams(1, func(p *Params) { p.PrefixesPerAS = 2 })
		sim, err := New(nets[0], params)
		if err != nil {
			t.Fatal(err)
		}
		tour := func(converge bool) {
			for i, nw := range nets {
				if policy {
					params.Policy = pols[i]
				}
				if err := sim.Rebind(nw, params); err != nil {
					t.Fatal(err)
				}
				if converge {
					if err := sim.ConvergeInitial(); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		tour(true) // grow every buffer to the larger world's needs
		both := testing.AllocsPerRun(4, func() { tour(true) })
		rebind := testing.AllocsPerRun(4, func() { tour(false) })
		if both != rebind {
			t.Errorf("policy=%v: Rebind+ConvergeInitial allocates %v objects per tour, Rebind alone %v: ConvergeInitial allocates",
				policy, both, rebind)
		}
	}
}

// heldColumns returns every route column s holds, in its routers' slots
// (past their degree too) and in its spare list, by first cell, and how
// many of the slots' columns a run materialized.
func heldColumns(s *Simulator) (held []*routeRef, inSlots int) {
	for _, r := range s.routers {
		for _, slots := range [][]refSlot{r.receive.adjIn.slots, r.flush.advertised} {
			for _, col := range slots[:cap(slots)] {
				if col.refs != nil {
					held = append(held, unsafe.SliceData(col.refs))
					inSlots++
				}
			}
		}
	}
	for _, col := range s.spare.cols {
		held = append(held, unsafe.SliceData(col))
	}
	return held, inSlots
}

// TestRebindTourHoldsTheBusiestWorldsColumns pins what the spare list is
// for: one simulator rebound through worlds of one size and different
// degree sequences holds, in its routers and spare list together, no more
// route columns than the most any one of them materializes on a fresh
// simulator, where keeping each router's largest degree held the sum of
// every router's busiest world. A second tour takes every column from
// what the first left.
func TestRebindTourHoldsTheBusiestWorldsColumns(t *testing.T) {
	const n = 40
	var nets []*topology.Network
	for i, spec := range []topology.SkewedSpec{topology.Skewed7030(n), topology.Skewed5050(n), topology.Skewed8515(n), topology.Skewed5050Dense(n)} {
		nw, err := topology.SkewedNetwork(spec, des.NewRNG(int64(30+i)))
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, nw)
	}
	nw, err := topology.InternetLikeNetwork(n, 3, 20, des.NewRNG(34))
	if err != nil {
		t.Fatal(err)
	}
	nets = append(nets, nw)

	run := func(sim *Simulator, nw *topology.Network) {
		if _, err := sim.ConvergeAndFail(topology.NearestNodes(nw, topology.GridCenter(nw), n/10, nil)); err != nil {
			t.Fatal(err)
		}
	}
	params := equivalenceParams(1, nil)
	sim, err := New(nets[0], params)
	if err != nil {
		t.Fatal(err)
	}
	most := 0
	for i, nw := range nets {
		fresh, err := New(nw, params)
		if err != nil {
			t.Fatal(err)
		}
		run(fresh, nw)
		_, materialized := heldColumns(fresh)
		most = max(most, materialized)
		if err := sim.Rebind(nw, params); err != nil {
			t.Fatal(err)
		}
		run(sim, nw)
		if held, _ := heldColumns(sim); len(held) > most {
			t.Errorf("world %d: the simulator holds %d columns, the busiest world so far materializes %d", i, len(held), most)
		}
	}
	first, _ := heldColumns(sim)
	made := make(map[*routeRef]bool, len(first))
	for _, col := range first {
		made[col] = true
	}
	for i, nw := range nets {
		if err := sim.Rebind(nw, params); err != nil {
			t.Fatal(err)
		}
		run(sim, nw)
		held, _ := heldColumns(sim)
		if fresh := slices.DeleteFunc(held, func(col *routeRef) bool { return made[col] }); len(fresh) > 0 {
			t.Errorf("second tour, world %d: %d columns made, want all %d taken from the first tour's", i, len(fresh), len(first))
		}
	}
}

// TestLanePushFireAllocFree pins that an update in flight costs no
// allocation once a lane's chunks are carved: 600 updates, across
// several chunk boundaries, go on the links to a dead router, and the
// engine fires (and drops) them all, over and over.
func TestLanePushFireAllocFree(t *testing.T) {
	nw, err := topology.SkewedNetwork(topology.Skewed7030(30), des.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(nw, equivalenceParams(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.ConvergeInitial(); err != nil {
		t.Fatal(err)
	}
	r := sim.routers[0]
	sim.routers[r.peers[0].Node].kill()
	bursts := 0
	burst := func() {
		bursts++
		for i := 0; i < 600; i++ {
			sim.deliver(&r.peers[0], Update{Slot: r.peers[0].Back})
		}
		if err := sim.eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	burst()
	if avg := testing.AllocsPerRun(5, burst); avg != 0 {
		t.Errorf("600 updates through a lane allocate %.1f objects, want 0", avg)
	}
	if l := &sim.lanes[0]; l.dropped != bursts*600 || l.n != 0 {
		t.Errorf("lane dropped %d updates and holds %d, want %d dropped and none left", l.dropped, l.n, bursts*600)
	}
}

// TestLaneOrderCheck pins that a lane which would leave its order does
// not do so silently: a session given a shorter delay than the rest of
// its kind breaks the model contract that makes a lane a FIFO, and under
// refInvariants the push that would overtake the lane's tail panics.
func TestLaneOrderCheck(t *testing.T) {
	nw, err := topology.SkewedNetwork(topology.Skewed7030(30), des.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(nw, equivalenceParams(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	r := sim.routers[0]
	if len(r.peers) < 2 {
		t.Fatalf("router 0 has %d sessions, want two", len(r.peers))
	}
	r.peers[1].Delay = r.peers[0].Delay / 2
	sim.deliver(&r.peers[0], Update{Slot: r.peers[0].Back})
	defer func() {
		if recover() == nil {
			t.Fatal("an update overtook its lane's tail without a panic")
		}
	}()
	sim.deliver(&r.peers[1], Update{Slot: r.peers[1].Back})
}

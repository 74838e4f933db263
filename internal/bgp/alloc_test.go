package bgp

import (
	"runtime"
	"testing"
	"unsafe"

	"bgpsim/internal/des"
	"bgpsim/internal/mrai"
	"bgpsim/internal/topology"
)

// These tests pin the allocation behaviour of the inbox hot path so a
// future change cannot silently reintroduce per-update garbage. The
// enqueue/flush cycle runs once per BGP message — hundreds of thousands
// of times per simulation — which is why the bounds are exact zeros.

// TestFIFOInboxPushPopAllocationFree pins that the default queue's
// push/pop cycle allocates nothing once the ring has grown: Pop hands out
// a scratch-backed one-update batch instead of a fresh slice.
func TestFIFOInboxPushPopAllocationFree(t *testing.T) {
	q := &fifoInbox{}
	u := ann(1, 7, 1, 2, 3)
	q.Push(u) // grow the ring
	q.Pop()
	avg := testing.AllocsPerRun(1000, func() {
		q.Push(u)
		batch := q.Pop()
		if len(batch) != 1 {
			t.Fatal("lost the update")
		}
		q.Recycle(batch)
	})
	if avg != 0 {
		t.Errorf("fifo push/pop allocates %.2f objects/op, want 0", avg)
	}
}

// TestBatchInboxSteadyStateAllocationLean pins the batched queue's
// steady-state cycle: with popped cells going back on the slab's free
// chain and every batch copied into the one batch array, a
// push/pop/recycle round trip allocates nothing once the slab, the
// destination ring and the batch array have been through it once.
func TestBatchInboxSteadyStateAllocationLean(t *testing.T) {
	q := &batchInbox{byDest: make([]int32, 4096), discardStale: true}
	// Warm: the first chunk, the ring and the batch array.
	for dest := 0; dest < 4; dest++ {
		q.Push(ann(1, dest, 1))
		q.Push(ann(2, dest, 2))
		q.Recycle(q.Pop())
	}
	u1, u2 := ann(1, 0, 1), ann(2, 0, 2)
	avg := testing.AllocsPerRun(1000, func() {
		q.Push(u1)
		q.Push(u2)
		batch := q.Pop()
		if len(batch) != 2 {
			t.Fatal("lost updates")
		}
		q.Recycle(batch)
		q.TakeDiscarded()
	})
	if avg != 0 {
		t.Errorf("batched push/pop/recycle allocates %.2f objects/op, want 0", avg)
	}
}

// TestRouterBatchInboxSteadyStateAllocationLean pins the same property
// for the per-peer production-router queue, whose Pop additionally reuses
// its supersede-scan map.
func TestRouterBatchInboxSteadyStateAllocationLean(t *testing.T) {
	q := &routerBatchInbox{byPeer: make(map[int32][]Update)}
	for i := 0; i < 4; i++ {
		q.Push(ann(1, 10, 1))
		q.Push(ann(1, 11, 2))
		q.Recycle(q.Pop())
	}
	u1, u2 := ann(1, 10, 1), ann(1, 11, 2)
	avg := testing.AllocsPerRun(1000, func() {
		q.Push(u1)
		q.Push(u2)
		batch := q.Pop()
		if len(batch) != 2 {
			t.Fatal("lost updates")
		}
		q.Recycle(batch)
		q.TakeDiscarded()
	})
	if avg != 0 {
		t.Errorf("router-batch push/pop/recycle allocates %.2f objects/op, want 0", avg)
	}
}

// markInbox records the most updates its inbox ever held.
type markInbox struct {
	Inbox
	mark int
}

func (q *markInbox) Push(u Update) {
	q.Inbox.Push(u)
	q.mark = max(q.mark, q.Len())
}

// TestInboxAllocatesItsHighWaterOnce pins what the cell slab is for: over
// a whole batch+dynamic trial on 120 routers from the refColdStart
// reference — initial convergence as events, a 10% failure,
// re-convergence, the heaviest load a trial puts on the inboxes —
// everything the batched inboxes hold that
// grows with traffic (cells, chunk table, destination ring, batch array)
// stays within 1.5 × 16 bytes per update of the routers' summed queue
// high-water marks. An array per pending destination cost several times
// that: every destination's own peak, plus what growing to it discarded.
func TestInboxAllocatesItsHighWaterOnce(t *testing.T) {
	nw, err := topology.SkewedNetwork(topology.Skewed7030(120), des.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(nw, equivalenceParams(1, func(p *Params) {
		p.Queue = QueueBatched
		p.MRAI = mrai.PaperDynamic()
		p.ref |= refColdStart
	}))
	if err != nil {
		t.Fatal(err)
	}
	marks := make([]*markInbox, len(sim.routers))
	for i, r := range sim.routers {
		marks[i] = &markInbox{Inbox: r.receive.inbox}
		r.receive.inbox = marks[i]
	}
	if _, err := sim.ConvergeAndFail(topology.NearestNodes(nw, topology.GridCenter(nw), 12, nil)); err != nil {
		t.Fatal(err)
	}
	var queued, held int
	for _, m := range marks {
		q := m.Inbox.(*batchInbox)
		queued += m.mark
		held += len(q.cells)*int(unsafe.Sizeof(*q.cells[0])) + cap(q.cells)*int(unsafe.Sizeof(q.cells[0])) +
			cap(q.order)*int(unsafe.Sizeof(q.order[0])) + cap(q.out)*int(unsafe.Sizeof(Update{}))
	}
	t.Logf("%d updates queued at the routers' high-water marks, inboxes hold %d B (%.2f x 16 B each)", queued, held, float64(held)/float64(16*queued))
	if queued < 10*len(marks) {
		t.Fatalf("only %d updates ever queued: the trial does not load the inboxes", queued)
	}
	if held > 16*queued*3/2 {
		t.Errorf("inboxes hold %d B for %d queued updates, want <= %d", held, queued, 16*queued*3/2)
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

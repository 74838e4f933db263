package bgp

import (
	"testing"
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
// steady-state cycle: with Recycle returning batch arrays to the free
// list, a push/pop/recycle round trip for an already-seen destination
// stays allocation-free on average (the order slice reallocates only
// amortized, which the integer-valued AllocsPerRun average absorbs).
func TestBatchInboxSteadyStateAllocationLean(t *testing.T) {
	q := &batchInbox{byDest: make([]int32, 4096), discardStale: true}
	// Warm: seed the per-destination lists and the free list.
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

package des

import (
	"math/bits"
	"slices"
)

// The engine's event queue is a lazy calendar (bucket) queue specialized
// for the distributions the BGP model produces: MRAI timers, processing
// delays, and link latencies cluster within a few seconds of the clock,
// so almost every event lands inside a short ring of time buckets. A ring
// bucket is an unsorted chain threaded through Event.next, so a push is
// two pointer writes and a bucket owns no storage; only the bucket being
// drained is a heap, loaded by heapify when the ring advances to it.
// Events scheduled beyond the ring's horizon fall back to a 4-ary
// overflow heap and are migrated into the ring as the clock approaches
// them, so a long-horizon workload degrades gracefully to a pure heap.
//
// Correctness does not depend on where an event is stored: buckets
// partition the time axis into disjoint, ordered ranges; the one heap
// holds the earliest occupied bucket, ordered by (at, seq), and receives
// every push that belongs at or before it; every chain holds a later
// bucket and the overflow heap only events later than everything in the
// ring. Popping the heap top
// therefore yields the same (at, seq) total order — and hence
// byte-identical simulation output — as one global heap. The tests in
// calendar_test.go pin the pop order against an independent sort of the
// scheduled events by (at, seq).
const (
	// calShift sets the bucket width to 2^21 ns ≈ 2.10 ms: fine enough
	// that same-bucket collisions stay rare at simulation densities,
	// coarse enough that the ring spans the MRAI clustering window.
	calShift = 21
	// calBuckets is the ring length (a power of two so ring indexing is a
	// mask). 2048 buckets × 2.10 ms ≈ 4.3 s of horizon, comfortably past
	// the 2.25 s maximum of the paper's MRAI ladder.
	calBuckets = 2048
	calMask    = calBuckets - 1
)

// calendarQueue is the engine's event queue: the heap of the current
// bucket, a ring of chains, and an overflow heap for events beyond the
// ring's horizon. The zero value is an empty queue anchored at the epoch.
// The heap's array is the only storage that grows, and it is sized to a
// chain when the chain is loaded, so a storm costs the queue its densest
// bucket once, not every bucket's own peak.
type calendarQueue struct {
	cur      eventHeap               // the current bucket, while it is being drained
	ring     [calBuckets]*Event      // slot b&calMask: chain of bucket b, curB <= b < curB+calBuckets
	occ      [calBuckets / 64]uint64 // occupancy bitmap over ring slots
	curB     int64                   // lowest bucket number the queue may hold
	ringN    int                     // events on the ring's chains
	overflow eventHeap               // events at or beyond curB+calBuckets
}

// Len returns the number of queued events.
func (q *calendarQueue) Len() int { return q.cur.Len() + q.ringN + q.overflow.Len() }

// rewind re-anchors the ring at the epoch. Only valid on an empty queue
// (Engine.Reset drains first).
func (q *calendarQueue) rewind() { q.curB = 0 }

// Push inserts an event: into its bucket's chain inside the ring's
// horizon, into the overflow heap beyond it. A bucket number below curB
// — possible when the clock trails the queue minimum, e.g. after RunUntil
// stopped at a deadline — is clamped to curB: buckets before curB are
// provably empty, so the clamped bucket is still drained first and its
// (at, seq) heap order puts the event in its right global position.
// While bucket curB is being drained its events go straight into the
// heap; its chain is empty then and stays so until the heap runs dry.
func (q *calendarQueue) Push(ev *Event) {
	b := int64(ev.at) >> calShift
	if b >= q.curB+calBuckets {
		q.overflow.Push(ev)
		return
	}
	if b <= q.curB {
		if q.cur.Len() > 0 {
			q.cur.Push(ev)
			return
		}
		b = q.curB
	}
	slot := int(b & calMask)
	ev.next = q.ring[slot]
	q.ring[slot] = ev
	q.occ[slot>>6] |= 1 << uint(slot&63)
	q.ringN++
}

// Peek returns the earliest event without removing it. It panics on an
// empty queue; callers check Len first.
func (q *calendarQueue) Peek() *Event {
	if q.cur.Len() == 0 {
		q.advance()
	}
	return q.cur.Peek()
}

// Pop removes and returns the earliest event.
func (q *calendarQueue) Pop() *Event {
	if q.cur.Len() == 0 {
		q.advance()
	}
	return q.cur.Pop()
}

// advance moves the anchor of a queue whose heap has run dry to the
// earliest occupied bucket and heapifies that bucket's chain. An empty
// ring is first re-anchored at the overflow minimum's bucket. Either
// move extends the horizon, and the overflow events it now covers
// migrate into their chains: at or past the previous horizon, so never
// ahead of the bucket being loaded. The heap's array is grown to the
// chain's length up front, which append's geometric steps would
// overshoot several times over on the way to a 40 000-event bucket.
func (q *calendarQueue) advance() {
	if q.ringN == 0 && q.overflow.Len() > 0 {
		q.curB = int64(q.overflow.Peek().at) >> calShift
		q.migrate()
	}
	slot := q.firstSlot()
	if delta := int64((slot - int(q.curB&calMask)) & calMask); delta > 0 {
		q.curB += delta
		q.migrate()
	}
	n := 0
	for ev := q.ring[slot]; ev != nil; ev = ev.next {
		n++
	}
	q.cur.items = slices.Grow(q.cur.items, n)
	for ev := q.ring[slot]; ev != nil; ev = ev.next {
		q.cur.items = append(q.cur.items, ev)
	}
	q.ring[slot] = nil
	q.occ[slot>>6] &^= 1 << uint(slot&63)
	q.ringN -= n
	q.cur.heapify()
}

// migrate moves overflow events whose bucket now falls inside the ring's
// horizon into their chains. Each event migrates at most once per
// lifetime in the queue: the horizon only advances.
func (q *calendarQueue) migrate() {
	horizon := q.curB + calBuckets
	for q.overflow.Len() > 0 && int64(q.overflow.Peek().at)>>calShift < horizon {
		q.Push(q.overflow.Pop())
	}
}

// firstSlot returns the ring slot of the earliest occupied bucket,
// scanning the occupancy bitmap circularly from curB's slot. All
// occupied buckets lie within one ring span of curB, so circular slot
// order from curB equals bucket-number order.
func (q *calendarQueue) firstSlot() int {
	s := int(q.curB & calMask)
	wi := s >> 6
	if w := q.occ[wi] &^ (1<<uint(s&63) - 1); w != 0 {
		return wi<<6 + bits.TrailingZeros64(w)
	}
	nw := len(q.occ)
	for i := 1; i <= nw; i++ {
		j := wi + i
		if j >= nw {
			j -= nw
		}
		if w := q.occ[j]; w != 0 {
			return j<<6 + bits.TrailingZeros64(w)
		}
	}
	// Invariant: callers ensure ringN > 0, so some occupancy bit is set;
	// reaching here is a queue bug, never reachable from input.
	panic("des: calendar queue ring empty")
}

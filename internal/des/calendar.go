package des

import "math/bits"

// The engine's event queue is a calendar (bucket) queue specialized for
// the distributions the BGP model produces: MRAI timers, processing
// delays, and link latencies cluster within a few seconds of the clock,
// so almost every event lands inside a short ring of time buckets and
// push/pop touch only a tiny per-bucket heap. Events scheduled beyond
// the ring's horizon fall back to a single 4-ary overflow heap and are
// migrated into the ring as the clock approaches them, so a long-horizon
// workload degrades gracefully to exactly the previous pure-heap queue.
//
// Correctness does not depend on where an event is stored: buckets
// partition the time axis into disjoint, ordered ranges; each bucket is
// itself a 4-ary min-heap ordered by (at, seq); and the overflow heap
// only ever holds events later than everything in the ring. Popping the
// earliest bucket's heap top therefore yields the same (at, seq) total
// order — and hence byte-identical simulation output — as one global
// heap. The tests in calendar_test.go pin the pop order against an
// independent sort of the scheduled events by (at, seq).
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
	// calBucketCap pre-sizes every bucket's heap storage from one shared
	// backing array, so dispatch stays allocation-free even the first
	// time a bucket is touched (the des alloc tests pin exact zeros).
	calBucketCap = 4
)

// calendarQueue is the engine's event queue: a ring of per-bucket 4-ary
// heaps plus an overflow heap for events beyond the ring's horizon.
type calendarQueue struct {
	buckets  []eventHeap // ring of per-bucket heaps
	occ      []uint64    // occupancy bitmap over ring slots
	curB     int64       // lowest bucket number the ring may hold
	ringN    int         // events currently stored in the ring
	overflow eventHeap   // events at or beyond curB+calBuckets
}

// init prepares the queue. The ring storage is carved from one backing
// array: 2048 heaps × 4 slots is a single 64 KiB allocation reused for
// the engine's lifetime (and across Engine.Reset).
func (q *calendarQueue) init() {
	q.buckets = make([]eventHeap, calBuckets)
	backing := make([]*Event, calBuckets*calBucketCap)
	for i := range q.buckets {
		q.buckets[i].items = backing[i*calBucketCap : i*calBucketCap : (i+1)*calBucketCap]
	}
	q.occ = make([]uint64, calBuckets/64)
}

// Len returns the number of queued events.
func (q *calendarQueue) Len() int { return q.ringN + q.overflow.Len() }

// rewind re-anchors the ring at the epoch. Only valid on an empty queue
// (Engine.Reset drains first).
func (q *calendarQueue) rewind() { q.curB = 0 }

// Push inserts an event. Events within the ring's horizon go to their
// time bucket; later ones go to the overflow heap. A bucket number below
// curB — possible when the clock trails the queue minimum, e.g. after
// RunUntil stopped at a deadline — is clamped to curB: buckets before
// curB are provably empty, so the clamped bucket is still popped first
// and its internal (at, seq) heap order puts the event in its right
// global position.
func (q *calendarQueue) Push(ev *Event) {
	b := int64(ev.at) >> calShift
	if b >= q.curB+calBuckets {
		q.overflow.Push(ev)
		return
	}
	if b < q.curB {
		b = q.curB
	}
	q.pushRing(b, ev)
}

func (q *calendarQueue) pushRing(b int64, ev *Event) {
	slot := int(b & calMask)
	q.buckets[slot].Push(ev)
	q.occ[slot>>6] |= 1 << uint(slot&63)
	q.ringN++
}

// Peek returns the earliest event without removing it. It panics on an
// empty queue; callers check Len first.
func (q *calendarQueue) Peek() *Event {
	if q.ringN == 0 {
		q.settleFromOverflow()
	}
	return q.buckets[q.firstSlot()].Peek()
}

// Pop removes and returns the earliest event.
func (q *calendarQueue) Pop() *Event {
	if q.ringN == 0 {
		q.settleFromOverflow()
	}
	slot := q.firstSlot()
	// Advance the anchor to the bucket being popped and pull any
	// overflow events the extended horizon now covers. Migrated events
	// all land in buckets strictly after this one (their bucket numbers
	// are at least the previous horizon), so the pop is unaffected.
	s := int(q.curB & calMask)
	if delta := int64((slot - s) & calMask); delta > 0 {
		q.curB += delta
		q.migrate()
	}
	h := &q.buckets[slot]
	ev := h.Pop()
	q.ringN--
	if h.Len() == 0 {
		q.occ[slot>>6] &^= 1 << uint(slot&63)
	}
	return ev
}

// settleFromOverflow re-anchors an empty ring at the overflow minimum's
// bucket and migrates every overflow event the new horizon covers. On an
// empty queue it does nothing, and the caller's firstSlot panics.
func (q *calendarQueue) settleFromOverflow() {
	if q.overflow.Len() == 0 {
		return
	}
	q.curB = int64(q.overflow.Peek().at) >> calShift
	q.migrate()
}

// migrate moves overflow events whose bucket now falls inside the ring's
// horizon into their buckets. Each event migrates at most once per
// lifetime in the queue: the horizon only advances.
func (q *calendarQueue) migrate() {
	horizon := q.curB + calBuckets
	for q.overflow.Len() > 0 {
		b := int64(q.overflow.Peek().at) >> calShift
		if b >= horizon {
			return
		}
		q.pushRing(b, q.overflow.Pop())
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
	panic("des: calendar queue ring empty") // callers ensure ringN > 0
}

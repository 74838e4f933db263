package bgp

// inbox is a router's input queue of BGP updates. Every discipline is
// the same structure: logical queues named by a key, served in order of
// each key's earliest pending update. A discipline picks only the key and
// what Pop takes from the key it serves:
//
//   - QueueFIFO is default BGP: one key, and Pop takes its oldest update,
//     so updates are processed strictly in arrival order, one at a time.
//   - QueueBatched is the paper's scheme (§4.4): the key is the
//     destination and Pop takes every update queued for it. With
//     discardStale set, a new update from a neighbor replaces, where it
//     sits, a still-queued older one from the same neighbor for the same
//     destination ("the older updates are now invalid").
//   - QueueRouterBatch is production-router batching circa the paper: the
//     key is the sending peer, whose TCP buffer Pop drains whole, and only
//     the newest update per destination within that batch is kept.
//
// Queued updates live in cells of the simulator's one cellSlab, which
// every router's inbox draws from. A key's queue is a circular chain of
// cells, so there is no array per key to outgrow, and a popped chain goes
// back on the slab's free chain in one splice.
//
// Batch ownership: the slice Pop returns aliases the inbox's one batch
// array and is valid until the next Pop or Reset.
type inbox struct {
	slab *cellSlab // the simulator's, shared by every router
	// byKey is dense by key (destinations and peer slots are small dense
	// integers, like every other per-dest or per-slot table) and holds the
	// handle of the last cell of key k's chain, whose next is the first:
	// append and head are both O(1). 0 when nothing is pending. At
	// multi-prefix scale a destination-keyed table has hundreds of
	// thousands of entries per router, which is why it holds 4-byte
	// handles and nothing else.
	byKey []int32
	// order is a power-of-two ring of the keys with pending updates, FIFO
	// by first arrival: orderN entries from orderHead.
	order             []int32
	orderHead, orderN int32
	out               []Update // the batch Pop last returned, reused by the next
	// size and discarded count updates, which 4-byte handles already
	// bound below 2³¹.
	size, discarded int32
	queue           QueueDiscipline
	discardStale    bool
	// seen is QueueRouterBatch's scratch: the destinations Pop's backward
	// scan over a peer batch has met, empty between Pops.
	seen bitset
}

// cellSlab holds every queued update of one simulator: 16-byte cells,
// named by 1-based handles and carved in fixed chunks that are never
// copied, and one chain of free cells. Cells go back on the free chain
// when they are popped or their router dies, and a fresh one is carved
// only when the chain is empty, so the slab grows to the most updates the
// whole simulator ever had queued at once: its busiest moment, not the
// sum of every router's. Simulator.Rebind rewinds it once every router is
// reset.
type cellSlab struct {
	chunks []*[inboxChunk]inboxCell
	n      int32 // cells issued since the rewind; the next fresh handle is n+1
	free   int32 // chain of recycled cells, 0-terminated
}

// inboxCell is one queued update and the handle of the cell after it.
type inboxCell struct {
	u    Update
	next int32
}

// inboxChunk is the slab's growth step: a 512-byte chunk, small against
// any storm and large enough that the chunk pointers stay under 2% of the
// cells.
const inboxChunk = 32

func (s *cellSlab) cell(h int32) *inboxCell {
	i := uint32(h - 1)
	return &s.chunks[i/inboxChunk][i%inboxChunk]
}

// newCell returns the handle of a free cell holding u and linked to
// itself: a chain of one.
func (s *cellSlab) newCell(u Update) int32 {
	h := s.free
	if h != 0 {
		s.free = s.cell(h).next
	} else {
		if int(s.n) == len(s.chunks)*inboxChunk {
			s.chunks = append(s.chunks, new([inboxChunk]inboxCell))
		}
		s.n++
		h = s.n
	}
	*s.cell(h) = inboxCell{u, h}
	return h
}

// rewind forgets every cell, keeping the chunks: the next handle issued
// is 1. Only safe when no inbox holds a chain.
func (s *cellSlab) rewind() { s.n, s.free = 0, 0 }

// ring returns the index in order of the i-th pending key after the
// head.
func (q *inbox) ring(i int32) int32 {
	return (q.orderHead + i) & int32(len(q.order)-1)
}

// Push files the update under its key, applying staleness elimination
// when enabled.
func (q *inbox) Push(u Update) {
	var k int32
	switch q.queue {
	case QueueBatched:
		k = u.Dest
	case QueueRouterBatch:
		k = u.Slot
	}
	s := q.slab
	tail := q.byKey[k]
	if tail == 0 {
		if int(q.orderN) == len(q.order) {
			next := make([]int32, max(8, 2*len(q.order)))
			for i := int32(0); i < q.orderN; i++ {
				next[i] = q.order[q.ring(i)]
			}
			q.order, q.orderHead = next, 0
		}
		q.order[q.ring(q.orderN)] = k
		q.orderN++
		q.byKey[k] = s.newCell(u)
		q.size++
		return
	}
	last := s.cell(tail)
	if q.discardStale {
		for c := s.cell(last.next); ; c = s.cell(c.next) {
			if c.u.Slot == u.Slot {
				// Replace in place: the new update supersedes the old one
				// and inherits its batch position.
				c.u = u
				q.discarded++
				return
			}
			if c == last {
				break
			}
		}
	}
	h := s.newCell(u)
	s.cell(h).next, last.next = last.next, h
	q.byKey[k] = h
	q.size++
}

// Pop returns the next unit of work from the key whose first update
// arrived earliest, copied in arrival order into the inbox's one batch
// array, or nil when the inbox is empty: that key's oldest update under
// FIFO, its whole chain otherwise. The popped cells are spliced onto the
// slab's free chain.
func (q *inbox) Pop() []Update {
	if q.orderN == 0 {
		return nil
	}
	s := q.slab
	k := q.order[q.orderHead]
	last := s.cell(q.byKey[k])
	first := last.next
	end := last
	if q.queue == QueueFIFO {
		end = s.cell(first)
	}
	q.out = q.out[:0]
	for c := s.cell(first); ; c = s.cell(c.next) {
		q.out = append(q.out, c.u)
		if c == end {
			break
		}
	}
	if end == last {
		q.byKey[k] = 0
		q.orderHead = q.ring(1)
		q.orderN--
	} else {
		last.next = end.next
	}
	end.next, s.free = s.free, first
	q.size -= int32(len(q.out))
	if q.queue == QueueRouterBatch {
		return q.newestPerDest()
	}
	return q.out
}

// newestPerDest keeps, of the peer batch in out, the newest update for
// each destination, in batch order, and counts the rest as discarded: a
// BGP speaker applies a batch in order, so the older ones are dead work
// that the batch reader skips. A backward scan meets each destination's
// newest update first.
func (q *inbox) newestPerDest() []Update {
	w := len(q.out)
	for i := len(q.out) - 1; i >= 0; i-- {
		u := q.out[i]
		if q.seen.has(int(u.Dest)) {
			q.discarded++
			continue
		}
		q.seen.set(int(u.Dest))
		w--
		q.out[w] = u
	}
	kept := q.out[w:]
	for _, u := range kept {
		q.seen.clear(int(u.Dest))
	}
	return kept
}

// Len returns the number of queued updates.
func (q *inbox) Len() int { return int(q.size) }

// TakeDiscarded returns and resets the count of updates deleted
// unprocessed since the last call.
func (q *inbox) TakeDiscarded() int {
	d := q.discarded
	q.discarded = 0
	return int(d)
}

// drop empties the inbox when its router dies, handing its cells back to
// the slab: each pending key's chain goes onto the free chain in one
// splice, so this is O(pending keys).
func (q *inbox) drop() {
	s := q.slab
	for i := int32(0); i < q.orderN; i++ {
		last := s.cell(q.byKey[q.order[q.ring(i)]])
		last.next, s.free = s.free, last.next
	}
	q.forget()
}

// forget empties the inbox, keeping the ring and the batch array, and
// leaves the cells it held to whoever rewinds the slab. Every pending key
// is in order, so walking it — not all of byKey — keeps this O(recent
// traffic).
func (q *inbox) forget() {
	for ; q.orderN > 0; q.orderN-- {
		q.byKey[q.order[q.orderHead]] = 0
		q.orderHead = q.ring(1)
	}
	q.orderHead = 0
	q.size, q.discarded = 0, 0
}

// Reset empties the inbox and sets it up for a run under p's discipline
// on a router with nslots peers over ndests destinations: byKey is
// fitted to the discipline's key count when that changed, and the
// router-batch scan set to ndests. The cells it held are not returned:
// Rebind rewinds the simulator's slab once every router is reset.
func (q *inbox) Reset(p Params, nslots, ndests int) {
	q.forget()
	q.queue = p.Queue
	q.discardStale = p.Queue == QueueBatched && p.BatchDiscardStale
	nkeys := 1
	switch p.Queue {
	case QueueBatched:
		nkeys = ndests
	case QueueRouterBatch:
		nkeys = nslots
		q.seen = q.seen.fit(ndests)
	}
	if len(q.byKey) != nkeys {
		q.byKey = fit(q.byKey, nkeys)
		clear(q.byKey)
	}
}

// forEachRef passes fn the Ref of every queued update, so a path-table
// sweep can mark it (Simulator.sweep). It
// walks the chains of the pending keys, which order lists; the free
// chain's cells hold stale refs, and the batch Pop last returned is the
// router's to visit.
func (q *inbox) forEachRef(fn func(*routeRef)) {
	s := q.slab
	for i := int32(0); i < q.orderN; i++ {
		last := s.cell(q.byKey[q.order[q.ring(i)]])
		for c := s.cell(last.next); ; c = s.cell(c.next) {
			fn(&c.u.Ref)
			if c == last {
				break
			}
		}
	}
}

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
// Queued updates live in one slab of 16-byte cells, named by 1-based
// handles and carved in fixed chunks that are never copied. A key's queue
// is a circular chain of cells, so the slab grows to the most updates the
// router ever had queued at once and no further: there is no array per
// key to outgrow, and a popped chain goes back on the free chain in one
// splice.
//
// Batch ownership: the slice Pop returns aliases the inbox's one batch
// array and is valid until the next Pop or Reset.
type inbox struct {
	cells  []*[inboxChunk]inboxCell
	ncells int32 // cells ever issued; the next fresh handle is ncells+1
	free   int32 // chain of recycled cells, 0-terminated
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

// inboxCell is one queued update and the handle of the cell after it.
type inboxCell struct {
	u    Update
	next int32
}

// inboxChunk is the slab's growth step: small enough that a router which
// never queues more than a few updates pays one 512-byte chunk, large
// enough that the busiest router's chunk pointers stay under 2% of its
// cells.
const inboxChunk = 32

func (q *inbox) cell(h int32) *inboxCell {
	i := uint32(h - 1)
	return &q.cells[i/inboxChunk][i%inboxChunk]
}

// ring returns the index in order of the i-th pending key after the
// head.
func (q *inbox) ring(i int32) int32 {
	return (q.orderHead + i) & int32(len(q.order)-1)
}

// newCell returns the handle of a free cell holding u and linked to
// itself: a chain of one.
func (q *inbox) newCell(u Update) int32 {
	h := q.free
	if h != 0 {
		q.free = q.cell(h).next
	} else {
		if int(q.ncells) == len(q.cells)*inboxChunk {
			q.cells = append(q.cells, new([inboxChunk]inboxCell))
		}
		q.ncells++
		h = q.ncells
	}
	*q.cell(h) = inboxCell{u, h}
	return h
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
		q.byKey[k] = q.newCell(u)
		q.size++
		return
	}
	last := q.cell(tail)
	if q.discardStale {
		for c := q.cell(last.next); ; c = q.cell(c.next) {
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
	h := q.newCell(u)
	q.cell(h).next, last.next = last.next, h
	q.byKey[k] = h
	q.size++
}

// Pop returns the next unit of work from the key whose first update
// arrived earliest, copied in arrival order into the inbox's one batch
// array, or nil when the inbox is empty: that key's oldest update under
// FIFO, its whole chain otherwise. The popped cells are spliced onto the
// free chain.
func (q *inbox) Pop() []Update {
	if q.orderN == 0 {
		return nil
	}
	k := q.order[q.orderHead]
	last := q.cell(q.byKey[k])
	first := last.next
	end := last
	if q.queue == QueueFIFO {
		end = q.cell(first)
	}
	q.out = q.out[:0]
	for c := q.cell(first); ; c = q.cell(c.next) {
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
	end.next, q.free = q.free, first
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

// drop empties the inbox, keeping the slab, the ring and the batch array.
// Every pending key is in order, so walking it — not all of byKey — keeps
// this O(recent traffic).
func (q *inbox) drop() {
	for ; q.orderN > 0; q.orderN-- {
		q.byKey[q.order[q.orderHead]] = 0
		q.orderHead = q.ring(1)
	}
	q.orderHead = 0
	q.ncells, q.free = 0, 0
	q.size, q.discarded = 0, 0
}

// Reset empties the inbox and sets it up for a run under p's discipline
// on a router with nslots peers over ndests destinations: byKey is
// fitted to the discipline's key count when that changed, and the
// router-batch scan set to ndests.
func (q *inbox) Reset(p Params, nslots, ndests int) {
	q.drop()
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

// forEachRef passes fn the Ref of every queued update, in place, so a
// path-table sweep can mark it and then rename it (Simulator.sweep). It
// walks the chains of the pending keys, which order lists; the free
// chain's cells hold stale refs, and the batch Pop last returned is the
// router's to visit.
func (q *inbox) forEachRef(fn func(*routeRef)) {
	for i := int32(0); i < q.orderN; i++ {
		last := q.cell(q.byKey[q.order[q.ring(i)]])
		for c := q.cell(last.next); ; c = q.cell(c.next) {
			fn(&c.u.Ref)
			if c == last {
				break
			}
		}
	}
}

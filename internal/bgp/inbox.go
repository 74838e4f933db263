package bgp

import "slices"

// Inbox is a router's input queue of BGP updates. Pop returns the next
// unit of work: a slice of updates the CPU processes together (length 1
// under FIFO). Discarded counts updates deleted without processing (the
// batching scheme's staleness elimination).
//
// Batch ownership: the slice returned by Pop is valid until the next Pop
// or Recycle call on the same inbox. The router hands it back through
// Recycle once the work unit is fully processed, letting an inbox that
// gives batches their own backing arrays reuse them.
type Inbox interface {
	// Push appends one arriving update.
	Push(u Update)
	// Pop removes and returns the next unit of work, or nil when empty.
	Pop() []Update
	// Len returns the number of queued updates.
	Len() int
	// Empty reports whether no updates are queued.
	Empty() bool
	// TakeDiscarded returns and resets the count of updates deleted
	// unprocessed since the last call.
	TakeDiscarded() int
	// Recycle returns a batch obtained from Pop so its backing array can
	// back a future batch. Passing a foreign slice is a caller bug.
	Recycle(batch []Update)
	// Reset empties the inbox for simulator reuse over ndests dense
	// destination indices, retaining internal capacity (ring buffers,
	// cell slabs, recycled batch arrays, the per-destination table) where
	// possible.
	Reset(ndests int)
	// forEachRef passes fn the Ref of every queued update, in place, so a
	// path-table sweep can mark it and then rename it (Simulator.sweep).
	// The batch Pop last returned is the router's to visit, not the
	// inbox's, and recycled storage holds stale refs that must not be
	// visited at all.
	forEachRef(fn func(*routeRef))
}

// newInbox builds the inbox for the configured queue discipline.
// ndests dimensions the dense per-destination tables of the batching
// discipline (ignored by the others).
func newInbox(p Params, ndests int) Inbox {
	switch p.Queue {
	case QueueBatched:
		return &batchInbox{
			byDest:       make([]int32, ndests),
			discardStale: p.BatchDiscardStale,
		}
	case QueueRouterBatch:
		return &routerBatchInbox{byPeer: make(map[int32][]Update)}
	default:
		return &fifoInbox{}
	}
}

// fifoInbox is default BGP: strict arrival order, one update at a time.
// It is a ring over chunks of fifoChunk updates that are never copied or
// freed: Push/Pop stay O(1) in the overload regime the experiments
// create, and a queue that grows to n updates allocates n, where a
// doubling ring allocates 2n to 4n.
type fifoInbox struct {
	chunks     [][]Update
	head, size int       // head is a slot of the ring, chunk head>>fifoShift
	out        [1]Update // scratch backing the single-update batch Pop returns
}

const fifoShift, fifoChunk = 6, 1 << 6

var _ Inbox = (*fifoInbox)(nil)

func (q *fifoInbox) slot(i int) *Update { return &q.chunks[i>>fifoShift][i&(fifoChunk-1)] }

// Push appends one update to the ring.
func (q *fifoInbox) Push(u Update) {
	if q.size == len(q.chunks)<<fifoShift {
		q.grow()
	}
	i := q.head + q.size
	if n := len(q.chunks) << fifoShift; i >= n {
		i -= n
	}
	*q.slot(i) = u
	q.size++
}

// grow splices an empty chunk into the full ring in front of head's
// chunk. The slots of that chunk before head hold the newest updates;
// they move to the same offsets of the new chunk, so the rest of the new
// chunk and the slots they left are the free run behind the tail.
func (q *fifoInbox) grow() {
	c, off := q.head>>fifoShift, q.head&(fifoChunk-1)
	q.chunks = slices.Insert(q.chunks, c, make([]Update, fifoChunk))
	if len(q.chunks) > 1 {
		copy(q.chunks[c][:off], q.chunks[c+1][:off])
		q.head += fifoChunk
	}
}

// Pop returns the oldest update as a one-element batch. The batch aliases
// an internal scratch slot, per the Inbox ownership contract.
func (q *fifoInbox) Pop() []Update {
	if q.size == 0 {
		return nil
	}
	q.out[0] = *q.slot(q.head)
	if q.head++; q.head == len(q.chunks)<<fifoShift {
		q.head = 0
	}
	q.size--
	return q.out[:1]
}

// Len returns the number of queued updates.
func (q *fifoInbox) Len() int { return q.size }

// Empty reports whether the ring is empty.
func (q *fifoInbox) Empty() bool { return q.size == 0 }

// TakeDiscarded always returns zero: FIFO never discards.
func (q *fifoInbox) TakeDiscarded() int { return 0 }

// Recycle is a no-op: FIFO batches live in a fixed scratch slot.
func (q *fifoInbox) Recycle(batch []Update) {}

// Reset empties the ring, retaining its chunks.
func (q *fifoInbox) Reset(int) { q.head, q.size = 0, 0 }

// forEachRef walks the ring from head to tail; out is the router's.
func (q *fifoInbox) forEachRef(fn func(*routeRef)) {
	for i, n := q.head, q.size; n > 0; n-- {
		fn(&q.slot(i).Ref)
		if i++; i == len(q.chunks)<<fifoShift {
			i = 0
		}
	}
}

// batchInbox is the paper's destination-batched queue: one logical queue
// per destination, served in order of each destination's earliest pending
// update. With discardStale set, a new update from a neighbor deletes any
// still-queued older update from the same neighbor for the same
// destination ("the older updates are now invalid").
//
// Queued updates live in one slab of 16-byte cells, named by 1-based
// handles and carved in fixed chunks that are never copied. A
// destination's queue is a circular chain of cells, so the slab grows to
// the most updates the router ever had queued at once and no further:
// there is no array per destination to outgrow, and a popped chain goes
// back on the free chain in one splice.
type batchInbox struct {
	cells  []*[inboxChunk]inboxCell
	ncells int32 // cells ever issued; the next fresh handle is ncells+1
	free   int32 // chain of recycled cells, 0-terminated
	// byDest is dense by destination index (destinations are small dense
	// integers, like every other per-dest table) and holds the handle of
	// the last cell of destination d's chain, whose next is the first:
	// append and head are both O(1). 0 when nothing is pending. At
	// multi-prefix scale the table has hundreds of thousands of entries
	// per router, which is why it holds 4-byte handles and nothing else.
	byDest []int32
	// order is a power-of-two ring of the destinations with pending
	// updates, FIFO by first arrival: orderN entries from orderHead.
	order             []int32
	orderHead, orderN int
	out               []Update // the batch Pop last returned, reused by the next
	size              int
	discarded         int
	discardStale      bool
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

var _ Inbox = (*batchInbox)(nil)

func (q *batchInbox) cell(h int32) *inboxCell {
	i := uint32(h - 1)
	return &q.cells[i/inboxChunk][i%inboxChunk]
}

// newCell returns the handle of a free cell holding u and linked to
// itself: a chain of one.
func (q *batchInbox) newCell(u Update) int32 {
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

// Push files the update under its destination, applying staleness
// elimination when enabled.
func (q *batchInbox) Push(u Update) {
	tail := q.byDest[u.Dest]
	if tail == 0 {
		if q.orderN == len(q.order) {
			next := make([]int32, max(8, 2*len(q.order)))
			for i := 0; i < q.orderN; i++ {
				next[i] = q.order[(q.orderHead+i)&(len(q.order)-1)]
			}
			q.order, q.orderHead = next, 0
		}
		q.order[(q.orderHead+q.orderN)&(len(q.order)-1)] = u.Dest
		q.orderN++
		q.byDest[u.Dest] = q.newCell(u)
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
	q.byDest[u.Dest] = h
	q.size++
}

// Pop returns all queued updates for the destination whose first update
// arrived earliest, copied in arrival order into the inbox's one batch
// array; the chain they were queued on is spliced onto the free chain.
func (q *batchInbox) Pop() []Update {
	if q.orderN == 0 {
		return nil
	}
	dest := q.order[q.orderHead]
	q.orderHead = (q.orderHead + 1) & (len(q.order) - 1)
	q.orderN--
	tail := q.byDest[dest]
	q.byDest[dest] = 0
	last := q.cell(tail)
	first := last.next
	q.out = q.out[:0]
	for c := q.cell(first); ; c = q.cell(c.next) {
		q.out = append(q.out, c.u)
		if c == last {
			break
		}
	}
	last.next, q.free = q.free, first
	q.size -= len(q.out)
	return q.out
}

// Len returns the number of queued updates across all destinations.
func (q *batchInbox) Len() int { return q.size }

// Empty reports whether no updates are queued.
func (q *batchInbox) Empty() bool { return q.size == 0 }

// TakeDiscarded returns and resets the stale-discard counter.
func (q *batchInbox) TakeDiscarded() int {
	d := q.discarded
	q.discarded = 0
	return d
}

// Recycle is a no-op: every batch lives in the inbox's own batch array.
func (q *batchInbox) Recycle(batch []Update) {}

// Reset empties the inbox, keeping the slab, the ring and the batch
// array for the next run. Every pending destination is in order, so
// walking it — not all of byDest — keeps this O(recent traffic). byDest
// is then fitted to ndests when that changed.
func (q *batchInbox) Reset(ndests int) {
	for ; q.orderN > 0; q.orderN-- {
		q.byDest[q.order[q.orderHead]] = 0
		q.orderHead = (q.orderHead + 1) & (len(q.order) - 1)
	}
	q.orderHead = 0
	q.ncells, q.free = 0, 0
	q.size = 0
	q.discarded = 0
	if len(q.byDest) != ndests {
		q.byDest = fit(q.byDest, ndests)
		clear(q.byDest)
	}
}

// forEachRef walks the chains of the pending destinations, which order
// lists; the free chain's cells hold stale refs.
func (q *batchInbox) forEachRef(fn func(*routeRef)) {
	for i := 0; i < q.orderN; i++ {
		last := q.cell(q.byDest[q.order[(q.orderHead+i)&(len(q.order)-1)]])
		for c := q.cell(last.next); ; c = q.cell(c.next) {
			fn(&c.u.Ref)
			if c == last {
				break
			}
		}
	}
}

// routerBatchInbox models production-router behaviour circa the paper:
// the reader drains one TCP buffer per peer and the batch is processed
// sequentially, with an update superseding an older same-destination
// update only if both sit in the same per-peer batch.
type routerBatchInbox struct {
	peerOrder []int32            // slots of the peers with pending updates, FIFO by first arrival
	orderHead int                // consumed prefix of peerOrder; reset when it drains
	byPeer    map[int32][]Update // pending updates by sender slot
	free      [][]Update         // recycled batch backing arrays
	lastFor   map[int32]int      // Pop scratch: last batch index per destination
	size      int
	discarded int
}

var _ Inbox = (*routerBatchInbox)(nil)

// Push files the update under its sending peer.
func (q *routerBatchInbox) Push(u Update) {
	list, pending := q.byPeer[u.Slot]
	if !pending {
		q.peerOrder = append(q.peerOrder, u.Slot)
		if n := len(q.free); list == nil && n > 0 {
			list = q.free[n-1]
			q.free[n-1] = nil
			q.free = q.free[:n-1]
		}
	}
	q.byPeer[u.Slot] = append(list, u)
	q.size++
}

// Pop drains the batch of the peer whose first update arrived earliest,
// dropping superseded same-destination updates within the batch.
func (q *routerBatchInbox) Pop() []Update {
	for q.orderHead < len(q.peerOrder) {
		peer := q.peerOrder[q.orderHead]
		q.orderHead++
		if q.orderHead == len(q.peerOrder) {
			q.peerOrder = q.peerOrder[:0]
			q.orderHead = 0
		}
		list, ok := q.byPeer[peer]
		if !ok || len(list) == 0 {
			continue
		}
		delete(q.byPeer, peer)
		q.size -= len(list)
		// Within the batch only the newest update per destination counts;
		// a BGP speaker applies them in order so older ones are dead work
		// that the batch reader skips.
		kept := list[:0]
		if q.lastFor == nil {
			q.lastFor = make(map[int32]int, len(list))
		}
		lastFor := q.lastFor
		clear(lastFor)
		for i, u := range list {
			lastFor[u.Dest] = i
		}
		for i, u := range list {
			if lastFor[u.Dest] == i {
				kept = append(kept, u)
			} else {
				q.discarded++
			}
		}
		return kept
	}
	return nil
}

// Len returns the number of queued updates across all peers.
func (q *routerBatchInbox) Len() int { return q.size }

// Empty reports whether no updates are queued.
func (q *routerBatchInbox) Empty() bool { return q.size == 0 }

// TakeDiscarded returns and resets the superseded-update counter.
func (q *routerBatchInbox) TakeDiscarded() int {
	d := q.discarded
	q.discarded = 0
	return d
}

// Recycle stores the batch's backing array for reuse by a future Push.
func (q *routerBatchInbox) Recycle(batch []Update) {
	if cap(batch) > 0 {
		q.free = append(q.free, batch[:0])
	}
}

// Reset empties the inbox, moving queued per-peer lists to the free list
// so their backing arrays are reused by the next run.
func (q *routerBatchInbox) Reset(int) {
	for peer, list := range q.byPeer {
		if cap(list) > 0 {
			q.free = append(q.free, list[:0])
		}
		delete(q.byPeer, peer)
	}
	q.peerOrder = q.peerOrder[:0]
	q.orderHead = 0
	q.size = 0
	q.discarded = 0
}

// forEachRef walks the pending per-peer lists; a popped list is the
// router's and the free lists hold stale refs.
func (q *routerBatchInbox) forEachRef(fn func(*routeRef)) {
	for _, list := range q.byPeer {
		for i := range list {
			fn(&list[i].Ref)
		}
	}
}

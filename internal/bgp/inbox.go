package bgp

// Inbox is a router's input queue of BGP updates. Pop returns the next
// unit of work: a slice of updates the CPU processes together (length 1
// under FIFO). Discarded counts updates deleted without processing (the
// batching scheme's staleness elimination).
//
// Batch ownership: the slice returned by Pop is valid until the next Pop
// or Recycle call on the same inbox. The router hands it back through
// Recycle once the work unit is fully processed, letting the inbox reuse
// the backing array for future batches.
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
	// recycled batch arrays, the per-destination table) where possible.
	Reset(ndests int)
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
// It is a growable ring buffer to keep Push/Pop O(1) without repeated
// reallocation in the overload regime the experiments create.
type fifoInbox struct {
	buf        []Update
	head, size int
	out        [1]Update // scratch backing the single-update batch Pop returns
}

var _ Inbox = (*fifoInbox)(nil)

// Push appends one update to the ring.
func (q *fifoInbox) Push(u Update) {
	if q.size == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.size)%len(q.buf)] = u
	q.size++
}

func (q *fifoInbox) grow() {
	next := make([]Update, max(8, 2*len(q.buf)))
	for i := 0; i < q.size; i++ {
		next[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = next
	q.head = 0
}

// Pop returns the oldest update as a one-element batch. The batch aliases
// an internal scratch slot, per the Inbox ownership contract.
func (q *fifoInbox) Pop() []Update {
	if q.size == 0 {
		return nil
	}
	q.out[0] = q.buf[q.head]
	q.buf[q.head] = Update{}
	q.head = (q.head + 1) % len(q.buf)
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

// Reset empties the ring, retaining its backing array.
func (q *fifoInbox) Reset(int) {
	clear(q.buf)
	q.head, q.size = 0, 0
}

// batchInbox is the paper's destination-batched queue: one logical queue
// per destination, served in order of each destination's earliest pending
// update. With discardStale set, a new update from a neighbor deletes any
// still-queued older update from the same neighbor for the same
// destination ("the older updates are now invalid").
type batchInbox struct {
	order     []int32 // destinations with pending updates, FIFO by first arrival
	orderHead int     // consumed prefix of order; reset when it drains
	// byDest is dense by destination index (destinations are small dense
	// integers, like every other per-dest table), but holds 4-byte slot
	// handles rather than slice headers: entry d is 1+i when lists[i] is
	// the pending batch for destination d, 0 when none is pending. The
	// dense array replaced a map whose hashing and bucket churn dominated
	// the inbox at 500-AS scale; the handle indirection exists because at
	// multi-prefix scale the table has hundreds of thousands of entries
	// per router, and a 24-byte slice header per destination would be the
	// largest structural cost in the whole simulator. Slice headers are
	// paid only for destinations with traffic in flight.
	byDest       []int32
	lists        [][]Update // slot-indexed pending batches; nil = slot free
	freeSlots    []int32    // unused lists slots (1-based, like byDest)
	free         [][]Update // recycled batch backing arrays
	size         int
	discarded    int
	discardStale bool
}

var _ Inbox = (*batchInbox)(nil)

// Push files the update under its destination, applying staleness
// elimination when enabled.
func (q *batchInbox) Push(u Update) {
	slot := q.byDest[u.Dest]
	var list []Update
	if slot == 0 {
		q.order = append(q.order, u.Dest)
		if n := len(q.free); n > 0 {
			list = q.free[n-1]
			q.free[n-1] = nil
			q.free = q.free[:n-1]
		}
		if n := len(q.freeSlots); n > 0 {
			slot = q.freeSlots[n-1]
			q.freeSlots = q.freeSlots[:n-1]
			q.lists[slot-1] = list
		} else {
			q.lists = append(q.lists, list)
			slot = int32(len(q.lists))
		}
		q.byDest[u.Dest] = slot
	} else {
		list = q.lists[slot-1]
	}
	if q.discardStale {
		for i := range list {
			if list[i].From == u.From {
				// Replace in place: the new update supersedes the old one
				// and inherits its batch position.
				list[i] = u
				q.discarded++
				return
			}
		}
	}
	q.lists[slot-1] = append(list, u)
	q.size++
}

// Pop returns all queued updates for the destination whose first update
// arrived earliest. The consumed prefix of the order slice is tracked by
// index (not by re-slicing) so the backing array is reused once drained
// instead of reallocated on every refill.
func (q *batchInbox) Pop() []Update {
	for q.orderHead < len(q.order) {
		dest := q.order[q.orderHead]
		q.orderHead++
		if q.orderHead == len(q.order) {
			q.order = q.order[:0]
			q.orderHead = 0
		}
		slot := q.byDest[dest]
		if slot == 0 {
			continue
		}
		list := q.lists[slot-1]
		q.lists[slot-1] = nil
		q.freeSlots = append(q.freeSlots, slot)
		q.byDest[dest] = 0
		if len(list) == 0 {
			continue
		}
		q.size -= len(list)
		return list
	}
	return nil
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

// Recycle stores the batch's backing array for reuse by a future Push.
func (q *batchInbox) Recycle(batch []Update) {
	if cap(batch) > 0 {
		q.free = append(q.free, batch[:0])
	}
}

// Reset empties the inbox, moving queued per-destination lists to the
// free list so their backing arrays are reused by the next run. Every
// pending destination appears in order (appended on its first push), so
// scanning order — not all of byDest — keeps this O(recent traffic);
// duplicates are harmless because the first visit nils the slot. byDest
// is then fitted to ndests when that changed.
func (q *batchInbox) Reset(ndests int) {
	for _, dest := range q.order {
		slot := q.byDest[dest]
		if slot == 0 {
			continue
		}
		if list := q.lists[slot-1]; cap(list) > 0 {
			q.free = append(q.free, list[:0])
		}
		q.lists[slot-1] = nil
		q.byDest[dest] = 0
	}
	q.order = q.order[:0]
	q.orderHead = 0
	q.lists = q.lists[:0]
	q.freeSlots = q.freeSlots[:0]
	q.size = 0
	q.discarded = 0
	if len(q.byDest) != ndests {
		q.byDest = fit(q.byDest, ndests)
		clear(q.byDest)
	}
}

// routerBatchInbox models production-router behaviour circa the paper:
// the reader drains one TCP buffer per peer and the batch is processed
// sequentially, with an update superseding an older same-destination
// update only if both sit in the same per-peer batch.
type routerBatchInbox struct {
	peerOrder []int32 // peers with pending updates, FIFO by first arrival
	orderHead int     // consumed prefix of peerOrder; reset when it drains
	byPeer    map[int32][]Update
	free      [][]Update    // recycled batch backing arrays
	lastFor   map[int32]int // Pop scratch: last batch index per destination
	size      int
	discarded int
}

var _ Inbox = (*routerBatchInbox)(nil)

// Push files the update under its sending peer.
func (q *routerBatchInbox) Push(u Update) {
	list, pending := q.byPeer[u.From]
	if !pending {
		q.peerOrder = append(q.peerOrder, u.From)
		if n := len(q.free); list == nil && n > 0 {
			list = q.free[n-1]
			q.free[n-1] = nil
			q.free = q.free[:n-1]
		}
	}
	q.byPeer[u.From] = append(list, u)
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

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

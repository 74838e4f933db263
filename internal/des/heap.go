package des

// heapArity is the fan-out of the event queue's d-ary min-heap. A 4-ary
// heap halves the tree depth relative to a binary heap, trading slightly
// more comparisons per sift-down for far fewer cache-missing levels —
// a win for the push/pop-dominated DES loop at large topology sizes.
//
// The arity is a pure performance knob: because (at, seq) is a strict
// total order over queued events (seq is unique per engine), the pop
// sequence is fully determined regardless of heap shape, so changing
// arity cannot change simulation output.
const heapArity = 4

// eventHeap is a d-ary min-heap of events ordered by (at, seq). It is
// hand-rolled rather than wrapping container/heap to avoid the interface
// boxing on every push/pop in the simulation hot loop.
type eventHeap struct {
	items []*Event
}

// Len returns the number of queued events (including canceled ones that
// have not been drained yet).
func (h *eventHeap) Len() int { return len(h.items) }

// Peek returns the earliest event without removing it. It panics on an
// empty heap; callers check Len first.
func (h *eventHeap) Peek() *Event { return h.items[0] }

func (h *eventHeap) less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
}

// Push inserts an event.
func (h *eventHeap) Push(ev *Event) {
	h.items = append(h.items, ev)
	h.up(len(h.items) - 1)
}

// Pop removes and returns the earliest event.
func (h *eventHeap) Pop() *Event {
	n := len(h.items) - 1
	ev := h.items[0]
	h.items[0] = h.items[n]
	h.items[n] = nil
	h.items = h.items[:n]
	if n > 0 {
		h.down(0)
	}
	return ev
}

// heapify orders items that were appended without Push, in O(n).
func (h *eventHeap) heapify() {
	for i := (len(h.items) - 2) / heapArity; i >= 0; i-- {
		h.down(i)
	}
}

func (h *eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / heapArity
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *eventHeap) down(i int) {
	n := len(h.items)
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		least := first
		last := first + heapArity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h.less(c, least) {
				least = c
			}
		}
		if !h.less(least, i) {
			break
		}
		h.swap(i, least)
		i = least
	}
}

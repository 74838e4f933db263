package bgp

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// inboxTab interns the paths of the hand-built updates below; inboxes
// never look inside a ref, so one shared table serves every test.
var inboxTab = testTab()

func ann(from int, dest ASN, path ...ASN) Update {
	if path == nil {
		path = Path{}
	}
	return testUpdate(inboxTab, from, dest, path)
}

func wd(from int, dest ASN) Update {
	return testUpdate(inboxTab, from, dest, nil)
}

// testSlots and testDests dimension the inboxes the tests build: room
// for every sender slot and destination the hand-built updates name.
const testSlots, testDests = 1024, 4096

// newTestInbox returns an empty inbox for the discipline, drawing on a
// cell slab and a router-batch scan set of its own.
func newTestInbox(queue QueueDiscipline, discardStale bool) *inbox {
	seen := newBitset(testDests)
	q := &inbox{slab: &cellSlab{}, seen: &seen}
	q.Reset(Params{Queue: queue, BatchDiscardStale: discardStale}, testSlots, testDests)
	return q
}

// inboxRows are the three disciplines with and without
// BatchDiscardStale, which only QueueBatched reads.
var inboxRows = []struct {
	name    string
	queue   QueueDiscipline
	discard bool
}{
	{"fifo", QueueFIFO, true},
	{"fifo-keep-stale", QueueFIFO, false},
	{"batched", QueueBatched, true},
	{"batched-keep-stale", QueueBatched, false},
	{"router-batch", QueueRouterBatch, true},
	{"router-batch-keep-stale", QueueRouterBatch, false},
}

func TestFIFOOrdering(t *testing.T) {
	q := newTestInbox(QueueFIFO, true)
	for i := 0; i < 100; i++ {
		q.Push(ann(i, i, 1))
	}
	if q.Len() != 100 {
		t.Fatalf("Len = %d", q.Len())
	}
	for i := 0; i < 100; i++ {
		batch := q.Pop()
		if len(batch) != 1 {
			t.Fatalf("FIFO pop returned %d updates", len(batch))
		}
		if int(batch[0].Slot) != i {
			t.Fatalf("pop %d returned update from %d", i, batch[0].Slot)
		}
	}
	if q.Len() != 0 {
		t.Error("not empty after draining")
	}
	if q.Pop() != nil {
		t.Error("Pop on empty returned a batch")
	}
}

func TestFIFORingBufferWrap(t *testing.T) {
	q := newTestInbox(QueueFIFO, true)
	// Interleave so popped cells are reused while older ones are queued.
	for round := 0; round < 50; round++ {
		q.Push(ann(round, 1, 1))
		q.Push(ann(round+1000, 1, 1))
		got := q.Pop()
		if int(got[0].Slot) != expectedWrapFrom(round) {
			t.Fatalf("round %d: got from %d", round, got[0].Slot)
		}
	}
}

// expectedWrapFrom mirrors the interleaving in TestFIFORingBufferWrap:
// pushes go (0,1000),(1,1001),... and one pop per round, so pops see
// 0,1000,1,1001,2,...
func expectedWrapFrom(round int) int {
	if round%2 == 0 {
		return round / 2
	}
	return 1000 + round/2
}

// TestFIFOMatchesSliceReference drives random bursts of pushes and pops
// through the FIFO inbox and a plain slice. Bursts span several chunks,
// so the slab grows while its free chain holds cells from every chunk; a
// drained queue is Reset now and then, as between trials. It also pins
// what the chunks are for: the slab holds its high-water mark rounded up
// to whole chunks.
func TestFIFOMatchesSliceReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	q := newTestInbox(QueueFIFO, true)
	var want []Update
	next, mark := 0, 0
	for round := 0; round < 4000; round++ {
		for n := rng.Intn(6 * inboxChunk); n > 0; n-- {
			u := ann(next%1000, next, 1)
			next++
			q.Push(u)
			want = append(want, u)
		}
		mark = max(mark, len(want))
		for n := rng.Intn(6*inboxChunk + 8); n > 0 && len(want) > 0; n-- {
			if got := q.Pop(); len(got) != 1 || got[0] != want[0] {
				t.Fatalf("round %d: popped %+v, want %+v", round, got, want[0])
			}
			want = want[1:]
		}
		if q.Len() != len(want) {
			t.Fatalf("round %d: Len %d, want %d", round, q.Len(), len(want))
		}
		if len(want) == 0 && rng.Intn(4) == 0 {
			q.Reset(Params{Queue: QueueFIFO}, 0, 0)
		}
	}
	if held := len(q.slab.chunks) * inboxChunk; mark < 4*inboxChunk || held >= mark+inboxChunk {
		t.Errorf("slab holds %d cells for a high-water mark of %d, want that rounded up to a multiple of %d", held, mark, inboxChunk)
	}
}

func TestFIFONeverDiscards(t *testing.T) {
	q := newTestInbox(QueueFIFO, true)
	q.Push(ann(1, 7, 1))
	q.Push(ann(1, 7, 2)) // same neighbor, same dest: FIFO keeps both
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2", q.Len())
	}
	if q.TakeDiscarded() != 0 {
		t.Error("FIFO reported discards")
	}
}

func TestBatchGroupsByDestination(t *testing.T) {
	q := newTestInbox(QueueBatched, true)
	// The paper's example: X,Y,X,Y from distinct neighbors.
	q.Push(ann(1, 100, 1)) // X
	q.Push(ann(2, 200, 2)) // Y
	q.Push(ann(3, 100, 3)) // X
	q.Push(ann(4, 200, 4)) // Y
	first := q.Pop()
	if len(first) != 2 || first[0].Dest != 100 || first[1].Dest != 100 {
		t.Fatalf("first batch = %+v, want both X updates", first)
	}
	second := q.Pop()
	if len(second) != 2 || second[0].Dest != 200 {
		t.Fatalf("second batch = %+v, want both Y updates", second)
	}
	if q.Len() != 0 {
		t.Error("queue not drained")
	}
}

func TestBatchDiscardsStaleSameNeighbor(t *testing.T) {
	q := newTestInbox(QueueBatched, true)
	q.Push(ann(1, 100, 9, 8))
	q.Push(ann(2, 100, 5))
	q.Push(ann(1, 100, 7)) // supersedes the first update from neighbor 1
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2 after staleness discard", q.Len())
	}
	if q.TakeDiscarded() != 1 {
		t.Error("discard not counted")
	}
	if q.TakeDiscarded() != 0 {
		t.Error("TakeDiscarded did not reset")
	}
	batch := q.Pop()
	if len(batch) != 2 {
		t.Fatalf("batch size = %d", len(batch))
	}
	// Neighbor 1's surviving update must be the newest one, in the
	// original (first-arrival) position.
	if batch[0].Slot != 1 || !pathsEqual(inboxTab.path(batch[0].Ref), Path{7}) {
		t.Errorf("neighbor 1 slot = %+v, want the newer path [7]", batch[0])
	}
	if batch[1].Slot != 2 {
		t.Errorf("neighbor 2 update lost: %+v", batch[1])
	}
}

func TestBatchWithdrawalSupersedesAnnouncement(t *testing.T) {
	q := newTestInbox(QueueBatched, true)
	q.Push(ann(1, 100, 3))
	q.Push(wd(1, 100))
	batch := q.Pop()
	if len(batch) != 1 || !batch[0].IsWithdrawal() {
		t.Fatalf("batch = %+v, want single withdrawal", batch)
	}
}

func TestBatchNoDiscardKeepsEverything(t *testing.T) {
	q := newTestInbox(QueueBatched, false)
	q.Push(ann(1, 100, 1))
	q.Push(ann(1, 100, 2))
	if q.Len() != 2 {
		t.Fatalf("Len = %d; ablation queue must keep stale updates", q.Len())
	}
	batch := q.Pop()
	if len(batch) != 2 {
		t.Fatalf("batch = %d updates, want 2", len(batch))
	}
	if q.TakeDiscarded() != 0 {
		t.Error("discards counted with discardStale off")
	}
}

func TestBatchDestinationOrderIsFirstArrival(t *testing.T) {
	q := newTestInbox(QueueBatched, true)
	q.Push(ann(1, 300, 1))
	q.Push(ann(1, 100, 1))
	q.Push(ann(2, 300, 2))
	if got := q.Pop(); got[0].Dest != 300 {
		t.Fatalf("first batch dest = %d, want 300 (first arrival)", got[0].Dest)
	}
	if got := q.Pop(); got[0].Dest != 100 {
		t.Fatalf("second batch dest = %d, want 100", got[0].Dest)
	}
}

func TestRouterBatchDrainsOnePeer(t *testing.T) {
	q := newTestInbox(QueueRouterBatch, true)
	q.Push(ann(1, 100, 1))
	q.Push(ann(2, 200, 2))
	q.Push(ann(1, 300, 3))
	batch := q.Pop()
	if len(batch) != 2 || batch[0].Slot != 1 || batch[1].Slot != 1 {
		t.Fatalf("batch = %+v, want both peer-1 updates", batch)
	}
	batch = q.Pop()
	if len(batch) != 1 || batch[0].Slot != 2 {
		t.Fatalf("batch = %+v, want peer-2 update", batch)
	}
}

func TestRouterBatchDedupsWithinBatchOnly(t *testing.T) {
	q := newTestInbox(QueueRouterBatch, true)
	q.Push(ann(1, 100, 1))
	q.Push(ann(1, 100, 2)) // same dest, same batch: older is dead work
	q.Push(ann(1, 200, 3))
	batch := q.Pop()
	if len(batch) != 2 {
		t.Fatalf("batch = %+v, want deduped to 2", batch)
	}
	if batch[0].Dest != 100 || !pathsEqual(inboxTab.path(batch[0].Ref), Path{2}) {
		t.Errorf("kept update = %+v, want the newer path", batch[0])
	}
	if q.TakeDiscarded() != 1 {
		t.Error("discard not counted")
	}
	// Across batches there is no dedup: push again after drain.
	q.Push(ann(1, 100, 4))
	if got := q.Pop(); len(got) != 1 {
		t.Fatalf("second batch = %+v", got)
	}
}

// Property: for any push sequence, every discipline conserves updates —
// popped + discarded == pushed.
func TestPropertyInboxConservation(t *testing.T) {
	for _, row := range inboxRows {
		t.Run(row.name, func(t *testing.T) {
			f := func(ops []uint8) bool {
				q := newTestInbox(row.queue, row.discard)
				pushed, popped, discarded := 0, 0, 0
				for _, op := range ops {
					if op%3 == 0 && q.Len() != 0 {
						popped += len(q.Pop())
						discarded += q.TakeDiscarded()
						continue
					}
					u := ann(int(op%5), ASN(op%7), 1)
					if op%11 == 0 {
						u = wd(int(op%5), ASN(op%7))
					}
					q.Push(u)
					pushed++
				}
				for q.Len() != 0 {
					popped += len(q.Pop())
					discarded += q.TakeDiscarded()
				}
				return pushed == popped+discarded
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
				t.Error(err)
			}
		})
	}
}

// sliceInbox is the plain reference for the three disciplines, in Go
// slices and a map: a slice in arrival order under FIFO; otherwise a
// slice per pending key (the destination, or the sending peer under
// router batch), keys served in order of first arrival. A stale batched
// update is overwritten where it sits; a router batch keeps the last
// update for each destination it names, found by a forward map.
type sliceInbox struct {
	queue        QueueDiscipline
	discardStale bool
	fifo         []Update
	order        []int32
	lists        map[int32][]Update
	size         int
	discarded    int
}

func (q *sliceInbox) Push(u Update) {
	if q.queue == QueueFIFO {
		q.fifo = append(q.fifo, u)
		q.size++
		return
	}
	k := u.Dest
	if q.queue == QueueRouterBatch {
		k = u.Slot
	}
	list, pending := q.lists[k]
	if !pending {
		q.order = append(q.order, k)
	}
	if q.discardStale && q.queue == QueueBatched {
		for i := range list {
			if list[i].Slot == u.Slot {
				list[i] = u
				q.discarded++
				return
			}
		}
	}
	q.lists[k] = append(list, u)
	q.size++
}

func (q *sliceInbox) Pop() []Update {
	if q.queue == QueueFIFO {
		if len(q.fifo) == 0 {
			return nil
		}
		u := q.fifo[0]
		q.fifo = q.fifo[1:]
		q.size--
		return []Update{u}
	}
	if len(q.order) == 0 {
		return nil
	}
	k := q.order[0]
	q.order = q.order[1:]
	list := q.lists[k]
	delete(q.lists, k)
	q.size -= len(list)
	if q.queue != QueueRouterBatch {
		return list
	}
	lastFor := make(map[int32]int)
	for i, u := range list {
		lastFor[u.Dest] = i
	}
	var kept []Update
	for i, u := range list {
		if lastFor[u.Dest] == i {
			kept = append(kept, u)
		} else {
			q.discarded++
		}
	}
	return kept
}

func (q *sliceInbox) TakeDiscarded() int {
	d := q.discarded
	q.discarded = 0
	return d
}

func (q *sliceInbox) Reset() {
	*q = sliceInbox{queue: q.queue, discardStale: q.discardStale, lists: map[int32][]Update{}}
}

// TestInboxMatchesSliceReference drives random push / pop / Reset tours
// through the slab inbox and the slice reference, one row per discipline
// and discard setting: same batches in the same order, same discard
// counts, same Len, whatever numbers of peers and destinations a Reset
// leaves. Few peers and destinations make in-place replacement,
// superseded router-batch updates and long chains common; pops come in
// bursts so the queue both builds up and drains to empty. The slab must
// also never issue more cells than were queued at once since the last
// Reset, which rewinds the slab as Rebind does: popped cells are the next
// ones used.
func TestInboxMatchesSliceReference(t *testing.T) {
	for _, row := range inboxRows {
		t.Run(row.name, func(t *testing.T) {
			p := Params{Queue: row.queue, BatchDiscardStale: row.discard}
			for seed := int64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				nslots, ndests := 6, 40
				seen := newBitset(64) // room for every ndests drawn below
				q := &inbox{slab: &cellSlab{}, seen: &seen}
				q.Reset(p, nslots, ndests)
				ref := &sliceInbox{queue: row.queue, discardStale: row.discard}
				ref.Reset()
				highWater := 0
				for op := 0; op < 20000; op++ {
					switch k := rng.Intn(1000); {
					case k == 0: // a new trial, usually over other numbers of peers and destinations
						nslots, ndests = 1+rng.Intn(8), 1+rng.Intn(60)
						q.Reset(p, nslots, ndests)
						q.slab.rewind()
						ref.Reset()
						highWater = 0
					case k < 560 || (k < 900 && op/500%2 == 0): // build-up and drain phases alternate
						path := Path{ASN(op)} // distinct refs tell a replaced update from the one it replaced
						if rng.Intn(8) == 0 {
							path = nil
						}
						u := testUpdate(inboxTab, rng.Intn(nslots), ASN(rng.Intn(ndests)), path)
						q.Push(u)
						ref.Push(u)
						highWater = max(highWater, ref.size)
					default:
						if got, want := q.Pop(), ref.Pop(); !slices.Equal(got, want) {
							t.Fatalf("seed %d op %d: popped %v, want %v", seed, op, got, want)
						}
					}
					if q.Len() != ref.size {
						t.Fatalf("seed %d op %d: Len %d, want %d", seed, op, q.Len(), ref.size)
					}
					if rng.Intn(4) == 0 {
						if got, want := q.TakeDiscarded(), ref.TakeDiscarded(); got != want {
							t.Fatalf("seed %d op %d: TakeDiscarded %d, want %d", seed, op, got, want)
						}
					}
					if int(q.slab.n) != highWater {
						t.Fatalf("seed %d op %d: slab has issued %d cells, %d updates were queued at most", seed, op, q.slab.n, highWater)
					}
				}
			}
		})
	}
}

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

func TestFIFOOrdering(t *testing.T) {
	q := &fifoInbox{}
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
	if !q.Empty() {
		t.Error("not empty after draining")
	}
	if q.Pop() != nil {
		t.Error("Pop on empty returned a batch")
	}
}

func TestFIFORingBufferWrap(t *testing.T) {
	q := &fifoInbox{}
	// Interleave to force wraparound.
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
// through the chunked ring and a plain slice. Bursts are sized so the
// ring fills, and so grows, with its head at every offset of a chunk and
// in every chunk of a ring already several chunks long; a drained queue
// is Reset now and then, as between trials. It also pins what the chunks
// are for: the ring holds its high-water mark rounded up to whole chunks.
func TestFIFOMatchesSliceReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	q := &fifoInbox{}
	var want []Update
	next, mark := 0, 0
	for round := 0; round < 4000; round++ {
		for n := rng.Intn(3 * fifoChunk); n > 0; n-- {
			u := ann(next%1000, next, 1)
			next++
			q.Push(u)
			want = append(want, u)
		}
		mark = max(mark, len(want))
		for n := rng.Intn(3*fifoChunk + 8); n > 0 && len(want) > 0; n-- {
			if got := q.Pop(); len(got) != 1 || got[0] != want[0] {
				t.Fatalf("round %d: popped %+v, want %+v", round, got, want[0])
			}
			want = want[1:]
		}
		if q.Len() != len(want) || q.Empty() != (len(want) == 0) {
			t.Fatalf("round %d: Len %d, want %d", round, q.Len(), len(want))
		}
		if len(want) == 0 && rng.Intn(4) == 0 {
			q.Reset(0)
		}
	}
	if held := len(q.chunks) * fifoChunk; mark < 4*fifoChunk || held >= mark+fifoChunk {
		t.Errorf("ring holds %d slots for a high-water mark of %d, want that rounded up to a multiple of %d", held, mark, fifoChunk)
	}
}

func TestFIFONeverDiscards(t *testing.T) {
	q := &fifoInbox{}
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
	q := &batchInbox{byDest: make([]int32, 4096), discardStale: true}
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
	if !q.Empty() {
		t.Error("queue not drained")
	}
}

func TestBatchDiscardsStaleSameNeighbor(t *testing.T) {
	q := &batchInbox{byDest: make([]int32, 4096), discardStale: true}
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
	q := &batchInbox{byDest: make([]int32, 4096), discardStale: true}
	q.Push(ann(1, 100, 3))
	q.Push(wd(1, 100))
	batch := q.Pop()
	if len(batch) != 1 || !batch[0].IsWithdrawal() {
		t.Fatalf("batch = %+v, want single withdrawal", batch)
	}
}

func TestBatchNoDiscardKeepsEverything(t *testing.T) {
	q := &batchInbox{byDest: make([]int32, 4096), discardStale: false}
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
	q := &batchInbox{byDest: make([]int32, 4096), discardStale: true}
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
	q := &routerBatchInbox{byPeer: make(map[int32][]Update)}
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
	q := &routerBatchInbox{byPeer: make(map[int32][]Update)}
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

func TestNewInboxSelectsDiscipline(t *testing.T) {
	p := DefaultParams()
	if _, ok := newInbox(p, 64).(*fifoInbox); !ok {
		t.Error("default discipline not FIFO")
	}
	p.Queue = QueueBatched
	if _, ok := newInbox(p, 64).(*batchInbox); !ok {
		t.Error("batched discipline wrong type")
	}
	p.Queue = QueueRouterBatch
	if _, ok := newInbox(p, 64).(*routerBatchInbox); !ok {
		t.Error("router-batch discipline wrong type")
	}
}

// Property: for any push sequence, every inbox conserves updates —
// popped + discarded == pushed — and Len always matches.
func TestPropertyInboxConservation(t *testing.T) {
	f := func(ops []uint8) bool {
		for _, mk := range []func() Inbox{
			func() Inbox { return &fifoInbox{} },
			func() Inbox { return &batchInbox{byDest: make([]int32, 4096), discardStale: true} },
			func() Inbox { return &routerBatchInbox{byPeer: make(map[int32][]Update)} },
		} {
			q := mk()
			pushed, popped, discarded := 0, 0, 0
			for _, op := range ops {
				if op%3 == 0 && !q.Empty() {
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
			for !q.Empty() {
				popped += len(q.Pop())
				discarded += q.TakeDiscarded()
			}
			if pushed != popped+discarded {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// sliceBatchInbox is the slice-per-pending-destination queue batchInbox
// replaced, kept as the plain reference for its batching semantics: a
// destination's batch is a Go slice in arrival order, a stale update is
// overwritten where it sits, and destinations are served in order of
// first arrival.
type sliceBatchInbox struct {
	order        []int32
	lists        map[int32][]Update
	size         int
	discarded    int
	discardStale bool
}

func (q *sliceBatchInbox) Push(u Update) {
	list, pending := q.lists[u.Dest]
	if !pending {
		q.order = append(q.order, u.Dest)
	}
	if q.discardStale {
		for i := range list {
			if list[i].Slot == u.Slot {
				list[i] = u
				q.discarded++
				return
			}
		}
	}
	q.lists[u.Dest] = append(list, u)
	q.size++
}

func (q *sliceBatchInbox) Pop() []Update {
	if len(q.order) == 0 {
		return nil
	}
	dest := q.order[0]
	q.order = q.order[1:]
	list := q.lists[dest]
	delete(q.lists, dest)
	q.size -= len(list)
	return list
}

func (q *sliceBatchInbox) TakeDiscarded() int {
	d := q.discarded
	q.discarded = 0
	return d
}

func (q *sliceBatchInbox) Reset() {
	*q = sliceBatchInbox{lists: map[int32][]Update{}, discardStale: q.discardStale}
}

// TestBatchInboxMatchesSliceReference drives random push / pop / Reset
// tours through the slab inbox and the slice reference: same batches in
// the same order, same discard counts, same Len, whatever the number of
// destinations a Reset leaves. Few neighbors and destinations make
// in-place replacement and long chains common; pops come in bursts so
// the queue both builds up and drains to empty. The slab must also never
// issue more cells than were queued at once since the last Reset: a
// popped chain's cells are the next ones used.
func TestBatchInboxMatchesSliceReference(t *testing.T) {
	for _, discard := range []bool{true, false} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			ndests := 40
			q := newInbox(Params{Queue: QueueBatched, BatchDiscardStale: discard}, ndests).(*batchInbox)
			ref := &sliceBatchInbox{discardStale: discard}
			ref.Reset()
			highWater := 0
			for op := 0; op < 20000; op++ {
				switch k := rng.Intn(1000); {
				case k == 0: // a new trial, usually over another number of destinations
					ndests = 1 + rng.Intn(60)
					q.Reset(ndests)
					ref.Reset()
					highWater = 0
				case k < 560 || (k < 900 && op/500%2 == 0): // build-up and drain phases alternate
					path := Path{ASN(op)} // distinct refs tell a replaced update from the one it replaced
					if rng.Intn(8) == 0 {
						path = nil
					}
					u := testUpdate(inboxTab, rng.Intn(6), ASN(rng.Intn(ndests)), path)
					q.Push(u)
					ref.Push(u)
					highWater = max(highWater, ref.size)
				default:
					got, want := q.Pop(), ref.Pop()
					if !slices.Equal(got, want) {
						t.Fatalf("discard=%v seed %d op %d: popped %v, want %v", discard, seed, op, got, want)
					}
					q.Recycle(got)
				}
				if q.Len() != ref.size || q.Empty() != (ref.size == 0) {
					t.Fatalf("discard=%v seed %d op %d: Len %d Empty %v, want %d", discard, seed, op, q.Len(), q.Empty(), ref.size)
				}
				if rng.Intn(4) == 0 {
					if got, want := q.TakeDiscarded(), ref.TakeDiscarded(); got != want {
						t.Fatalf("discard=%v seed %d op %d: TakeDiscarded %d, want %d", discard, seed, op, got, want)
					}
				}
				if int(q.ncells) != highWater {
					t.Fatalf("discard=%v seed %d op %d: slab has issued %d cells, %d updates were queued at most", discard, seed, op, q.ncells, highWater)
				}
			}
		}
	}
}

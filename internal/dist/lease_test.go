package dist

import (
	"errors"
	"strings"
	"testing"
	"time"

	"bgpsim/internal/experiment"
)

// fakeClock is a manually advanced clock; lease tests never sleep.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// fakeResults builds a distinguishable per-trial result slice.
func fakeResults(tag, trials int) []experiment.Result {
	rs := make([]experiment.Result, trials)
	for i := range rs {
		rs[i] = experiment.Result{Delay: time.Duration(tag)*time.Second + time.Duration(i), Messages: tag}
	}
	return rs
}

// fakeJob is a sweep-job payload for job id, distinguishable by tag.
func fakeJob(id, tag int) JobResult {
	return JobResult{ID: id, Results: fakeResults(tag, 1)}
}

// jobs lists fakeJob(id, tag) for each id from first to last.
func jobs(first, last, tag int) []JobResult {
	var b []JobResult
	for id := first; id <= last; id++ {
		b = append(b, fakeJob(id, tag))
	}
	return b
}

// complete vets and records batch the way the coordinator does, and
// reports how many jobs were new.
func (tab *leaseTable) complete(batch []JobResult) (int, error) {
	if err := tab.check(batch); err != nil {
		return 0, err
	}
	added := 0
	for _, r := range batch {
		if tab.record(r) {
			added++
		}
	}
	return added, nil
}

func mustAcquire(t *testing.T, tab *leaseTable, first, n int) grant {
	t.Helper()
	g, ok := tab.acquire()
	if !ok || g.first != first || g.n != n {
		t.Fatalf("acquire = (%+v, %v), want jobs %d..%d", g, ok, first, first+n-1)
	}
	return g
}

func TestLeaseAcquireOrderAndExhaustion(t *testing.T) {
	clk := newFakeClock()
	tab := newLeaseTable(3, 1, 10*time.Second, clk.now)
	for want := 0; want < 3; want++ {
		if g := mustAcquire(t, tab, want, 1); g.lease != int64(want+1) || g.reassigned {
			t.Fatalf("acquire %d = %+v, want lease %d, not reassigned", want, g, want+1)
		}
	}
	if _, ok := tab.acquire(); ok {
		t.Error("acquire succeeded with every job validly leased")
	}
}

// TestLeaseGrantStaysInCell: a grant is the rest of one cell, never more;
// a table of one-trial cells grants one trial at a time; and a job restored
// from a checkpoint splits its cell's grants around it.
func TestLeaseGrantStaysInCell(t *testing.T) {
	clk := newFakeClock()
	tab := newLeaseTable(7, 3, time.Second, clk.now)
	mustAcquire(t, tab, 0, 3)
	mustAcquire(t, tab, 3, 3)
	mustAcquire(t, tab, 6, 1) // a short last cell ends at the table
	if _, ok := tab.acquire(); ok {
		t.Error("acquire past the end of the table")
	}

	single := newLeaseTable(3, 1, time.Second, clk.now)
	for id := 0; id < 3; id++ {
		mustAcquire(t, single, id, 1)
	}

	resumed := newLeaseTable(6, 3, time.Second, clk.now)
	resumed.record(fakeJob(1, 1))
	mustAcquire(t, resumed, 0, 1)
	mustAcquire(t, resumed, 2, 1)
	mustAcquire(t, resumed, 3, 3)
}

func TestLeaseExpiryReassignsToNewWorker(t *testing.T) {
	clk := newFakeClock()
	tab := newLeaseTable(1, 1, 10*time.Second, clk.now)
	g1 := mustAcquire(t, tab, 0, 1)
	if _, ok := tab.acquire(); ok {
		t.Fatal("job reassigned before its lease expired")
	}
	clk.advance(10*time.Second + time.Nanosecond)
	g2 := mustAcquire(t, tab, 0, 1)
	if g2.lease == g1.lease {
		t.Error("reassignment reused the old lease token")
	}
	if !g2.reassigned || g1.reassigned {
		t.Errorf("reassigned flags = %v then %v, want false then true", g1.reassigned, g2.reassigned)
	}
}

// TestLeaseExpiryReassignsOnlyUnfinishedJobs: a worker dies holding a
// three-job lease after one of its jobs was reported (completions may
// name any leased job); after the TTL the other workers get exactly the
// two unfinished jobs, and never work that is pending elsewhere first.
// The dead worker's late batch then lands on the duplicate path.
func TestLeaseExpiryReassignsOnlyUnfinishedJobs(t *testing.T) {
	clk := newFakeClock()
	tab := newLeaseTable(6, 3, time.Second, clk.now)
	mustAcquire(t, tab, 0, 3) // the doomed worker
	if n, err := tab.complete(jobs(1, 1, 7)); err != nil || n != 1 {
		t.Fatalf("partial completion = (%d, %v)", n, err)
	}
	clk.advance(2 * time.Second)
	// Pending work comes before reassignment.
	mustAcquire(t, tab, 3, 3)
	if n, err := tab.complete(jobs(3, 5, 7)); err != nil || n != 3 {
		t.Fatalf("second cell = (%d, %v)", n, err)
	}
	for _, id := range []int{0, 2} {
		if g := mustAcquire(t, tab, id, 1); !g.reassigned {
			t.Errorf("job %d not marked reassigned", id)
		}
	}
	if _, ok := tab.acquire(); ok {
		t.Error("a finished job was reassigned")
	}
	if n, err := tab.complete([]JobResult{fakeJob(0, 7), fakeJob(2, 7)}); err != nil || n != 2 {
		t.Fatalf("reassigned jobs = (%d, %v)", n, err)
	}
	if n, err := tab.complete(jobs(0, 2, 7)); err != nil || n != 0 {
		t.Errorf("straggler's late batch = (%d, %v), want an all-duplicate (0, nil)", n, err)
	}
	if tab.remaining() != 0 {
		t.Errorf("remaining = %d, want 0", tab.remaining())
	}
}

func TestSupersededLeaseCompletionAcceptedOnce(t *testing.T) {
	clk := newFakeClock()
	tab := newLeaseTable(2, 2, time.Second, clk.now)
	mustAcquire(t, tab, 0, 2)
	clk.advance(2 * time.Second)
	mustAcquire(t, tab, 0, 2)

	// Alice finally reports under her superseded lease: deterministic
	// results, first to finish wins.
	if n, err := tab.complete(jobs(0, 1, 7)); err != nil || n != 2 {
		t.Fatalf("superseded-lease completion = (%d, %v), want (2, nil)", n, err)
	}
	// Bob's identical submission is the idempotent duplicate.
	if n, err := tab.complete(jobs(0, 1, 7)); err != nil || n != 0 {
		t.Fatalf("duplicate completion = (%d, %v), want (0, nil)", n, err)
	}
	if tab.done != 2 || tab.remaining() != 0 {
		t.Errorf("done = %d remaining = %d after duplicate, want 2 and 0", tab.done, tab.remaining())
	}
}

// TestDivergentDuplicateIsError: one divergent payload in a batch makes
// the whole batch an errDiverged error, and the batch's new jobs are not
// recorded either.
func TestDivergentDuplicateIsError(t *testing.T) {
	clk := newFakeClock()
	tab := newLeaseTable(3, 3, time.Second, clk.now)
	mustAcquire(t, tab, 0, 3)
	if _, err := tab.complete(jobs(0, 0, 1)); err != nil {
		t.Fatal(err)
	}
	_, err := tab.complete([]JobResult{fakeJob(0, 2), fakeJob(1, 1), fakeJob(2, 1)})
	if !errors.Is(err, errDiverged) || !strings.Contains(err.Error(), "different results") {
		t.Fatalf("divergent duplicate accepted: %v", err)
	}
	if tab.done != 1 {
		t.Errorf("done = %d after a refused batch, want 1", tab.done)
	}
}

// TestCompleteWithoutLeaseIsError: a batch naming a job outside the
// table, one never leased, the same job twice or jobs out of order, or a
// payload that is not one trial's result, is refused whole — not as a
// divergence, and with nothing recorded.
func TestCompleteWithoutLeaseIsError(t *testing.T) {
	clk := newFakeClock()
	tab := newLeaseTable(4, 2, time.Second, clk.now)
	mustAcquire(t, tab, 0, 2)
	for name, batch := range map[string][]JobResult{
		"empty":          nil,
		"never leased":   {fakeJob(1, 1), fakeJob(2, 1)},
		"out of range":   {fakeJob(0, 1), fakeJob(5, 1)},
		"negative":       {fakeJob(-1, 1), fakeJob(0, 1)},
		"named twice":    {fakeJob(0, 1), fakeJob(0, 1)},
		"descending":     {fakeJob(1, 1), fakeJob(0, 1)},
		"two results":    {{ID: 0, Results: fakeResults(1, 2)}},
		"no result":      {{ID: 0}},
		"second missing": {fakeJob(0, 1), {ID: 1}},
	} {
		_, err := tab.complete(batch)
		if err == nil || errors.Is(err, errDiverged) {
			t.Errorf("%s: complete = %v, want a refusal that is not a divergence", name, err)
		}
		if tab.done != 0 {
			t.Fatalf("%s: refused batch recorded %d jobs", name, tab.done)
		}
	}
}

func TestMarkDoneSkipsLeasing(t *testing.T) {
	clk := newFakeClock()
	tab := newLeaseTable(2, 1, time.Second, clk.now)
	if !tab.record(fakeJob(1, 3)) || tab.record(fakeJob(1, 3)) {
		t.Fatal("record is not new exactly once")
	}
	if tab.remaining() != 1 {
		t.Fatalf("remaining = %d, want 1", tab.remaining())
	}
	// The only leasable job is the not-yet-done one.
	mustAcquire(t, tab, 0, 1)
	if _, ok := tab.acquire(); ok {
		t.Error("checkpoint-restored job handed out as work")
	}
}

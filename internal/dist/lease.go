package dist

import (
	"errors"
	"fmt"
	"slices"
	"time"
)

// jobEntry is one trial job's lease and result record. A job is pending
// while lease is 0 and not done, leased while lease is set and not done.
type jobEntry struct {
	lease   int64     // token of the last lease granted on the job (0 = never leased)
	expires time.Time // when that lease may be reassigned
	done    bool
	result  JobResult // the recorded payload, once done
}

// grant is one lease: jobs first … first+n−1, all of one cell.
type grant struct {
	first, n   int
	lease      int64
	reassigned bool // the jobs were held by a lease that expired
}

// errDiverged marks a completion whose payload differs from the one
// already recorded for the same job: a determinism violation.
var errDiverged = errors.New("completed twice with different results — worker versions or inputs diverge")

// leaseTable tracks the lease lifecycle of one run's trial jobs:
//
//	pending --acquire--> leased --record--> done
//	   ^                   |
//	   +----lease expiry---+   (reassignment: acquire hands the job
//	                            to another worker, new lease token)
//
// A lease covers consecutive jobs of one cell, cell jobs (the sweep's
// trials) per cell, and each job keeps its own lease token and expiry,
// so on expiry exactly the jobs the lease still holds go back. Expiry is
// lazy: an expired lease is noticed when another worker asks for work
// (acquire) or when the original worker finally reports (still accepted,
// results are deterministic). The table is NOT safe for concurrent use;
// the coordinator serializes access under its own mutex, which is also
// what makes fake-clock unit tests trivial.
type leaseTable struct {
	ttl       time.Duration
	now       func() time.Time
	cell      int
	jobs      []jobEntry
	done      int
	cells     int // cells whose every job is done
	nextLease int64
}

// newLeaseTable builds a table of n pending jobs, cell to a cell, whose
// leases last ttl on the clock now.
func newLeaseTable(n, cell int, ttl time.Duration, now func() time.Time) *leaseTable {
	return &leaseTable{ttl: ttl, now: now, cell: cell, jobs: make([]jobEntry, n)}
}

// free reports whether job i may be granted at now: not done, and never
// leased or its lease expired.
func (t *leaseTable) free(i int, now time.Time) bool {
	j := &t.jobs[i]
	return !j.done && (j.lease == 0 || now.After(j.expires))
}

// acquire grants the lowest never-leased job, else the lowest job whose
// lease has expired (reassignment), together with the free jobs that
// follow it in its cell. It returns ok=false when every job is either
// done or validly leased.
func (t *leaseTable) acquire() (g grant, ok bool) {
	now := t.now()
	first, expired := -1, -1
	for i := range t.jobs {
		if !t.jobs[i].done && t.jobs[i].lease == 0 {
			first = i
			break
		}
		if expired < 0 && t.free(i, now) {
			expired = i
		}
	}
	if first < 0 {
		first = expired
	}
	if first < 0 {
		return grant{}, false
	}
	end := min((first/t.cell+1)*t.cell, len(t.jobs))
	g = grant{first: first, n: 1, reassigned: t.jobs[first].lease != 0}
	for first+g.n < end && t.free(first+g.n, now) {
		g.n++
	}
	t.nextLease++
	g.lease = t.nextLease
	for i := first; i < first+g.n; i++ {
		t.jobs[i].lease, t.jobs[i].expires = g.lease, now.Add(t.ttl)
	}
	return g, true
}

// check vets a completion's payloads before any is recorded, so a batch
// is taken whole or not at all. It refuses an empty batch, a job outside
// the table or never leased, jobs not in strictly ascending order (a job
// named twice among them), and a payload that is not one trial's result.
// A payload that differs from the one already recorded for its job is an
// error wrapping errDiverged. Under which lease a job is reported does not matter: a
// superseded lease's results are as deterministic as the current one's,
// so the first to finish wins and the other lands on the duplicate path.
func (t *leaseTable) check(batch []JobResult) error {
	if len(batch) == 0 {
		return errors.New("dist: completion names no job")
	}
	for k, r := range batch {
		switch {
		case r.ID < 0 || r.ID >= len(t.jobs):
			return fmt.Errorf("dist: job %d outside table of %d", r.ID, len(t.jobs))
		case k > 0 && r.ID <= batch[k-1].ID:
			return fmt.Errorf("dist: completion names job %d after job %d; jobs must ascend", r.ID, batch[k-1].ID)
		case len(r.Results) != 1:
			return fmt.Errorf("dist: job %d: payload is not one trial's result", r.ID)
		}
		switch j := &t.jobs[r.ID]; {
		case j.done && !j.result.equal(r):
			return fmt.Errorf("dist: job %d %w", r.ID, errDiverged)
		case !j.done && j.lease == 0:
			return fmt.Errorf("dist: job %d completed without ever being leased", r.ID)
		}
	}
	return nil
}

// record stores r as its job's result and reports whether the job was
// not done before; a job that completes its cell also counts the cell.
// The caller has vetted r (check), or restores it from a checkpoint,
// where no lease ever existed.
func (t *leaseTable) record(r JobResult) bool {
	j := &t.jobs[r.ID]
	if j.done {
		return false
	}
	j.done, j.result = true, r
	t.done++
	first := r.ID / t.cell * t.cell
	for i := first; i < min(first+t.cell, len(t.jobs)); i++ {
		if !t.jobs[i].done {
			return true
		}
	}
	t.cells++
	return true
}

// remaining counts jobs not yet done.
func (t *leaseTable) remaining() int { return len(t.jobs) - t.done }

// equal compares payloads field for field — the duplicate-completion
// determinism check (Result is a comparable struct of integers).
func (p JobResult) equal(q JobResult) bool { return slices.Equal(p.Results, q.Results) }

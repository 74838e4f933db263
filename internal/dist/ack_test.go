package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"bgpsim/internal/core"
	"bgpsim/internal/experiment"
)

// sweepHarness is a coordinator on a fake clock (10 s leases) running
// testSweepCfg, six cells of two trials, from before the first request.
type sweepHarness struct {
	coord *Coordinator
	h     http.Handler
	clk   *fakeClock
	out   chan sweepOut
}

func newSweepHarness(t *testing.T) *sweepHarness {
	t.Helper()
	clk := newFakeClock()
	coord, err := NewCoordinator(CoordinatorConfig{LeaseTTL: 10 * time.Second, Clock: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	s := &sweepHarness{coord: coord, h: coord.Handler(), clk: clk, out: make(chan sweepOut, 1)}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go func() {
		fig, err := coord.RunSweep(ctx, "test", core.Options{}, testSweepCfg(nil))
		s.out <- sweepOut{fig, err}
	}()
	awaitRun(coord)
	return s
}

// awaitRun returns once coord has a run installed.
func awaitRun(coord *Coordinator) {
	for !coord.Stats().Active {
		time.Sleep(100 * time.Microsecond)
	}
}

// completeNext submits batch under lease l for worker, asking for the
// next lease, and returns the acknowledgement.
func completeNext(t *testing.T, h http.Handler, worker string, l LeaseResponse, batch []JobResult) CompleteResponse {
	t.Helper()
	var ack CompleteResponse
	code := postJSON(t, h, "/v1/complete", CompleteRequest{
		Worker: worker, SweepID: l.SweepID, Lease: l.Lease, Jobs: batch, Next: true,
	}, &ack)
	if code != http.StatusOK {
		t.Fatalf("complete jobs from %d: HTTP %d", l.Job.ID, code)
	}
	if ack.Next == nil {
		t.Fatalf("complete jobs from %d: ack %+v grants nothing", l.Job.ID, ack)
	}
	return ack
}

// heldJobs lists the jobs of the active run that a lease holds and no
// result has completed.
func heldJobs(c *Coordinator) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var held []int
	if c.cur == nil {
		return nil
	}
	for id, j := range c.cur.table.jobs {
		if !j.done && j.lease != 0 {
			held = append(held, id)
		}
	}
	return held
}

// exchangeLog forwards requests to a handler, keeping every completion
// request and counting lease requests. before, when set, runs first on
// each completion.
type exchangeLog struct {
	next   http.Handler
	before func()

	mu        sync.Mutex
	leases    int
	completes []CompleteRequest
}

func (x *exchangeLog) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	switch r.URL.Path {
	case "/v1/lease":
		x.mu.Lock()
		x.leases++
		x.mu.Unlock()
	case "/v1/complete":
		var req CompleteRequest
		if err := json.Unmarshal(body, &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		x.mu.Lock()
		x.completes = append(x.completes, req)
		x.mu.Unlock()
		if x.before != nil {
			x.before()
		}
	}
	x.next.ServeHTTP(w, r)
}

// snapshot returns the lease count and the completions so far.
func (x *exchangeLog) snapshot() (int, []CompleteRequest) {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.leases, append([]CompleteRequest(nil), x.completes...)
}

// freeRunner is a sweep runner whose trials cost nothing.
func freeRunner(_ context.Context, _ SweepDesc, job Job, n int) ([]experiment.Result, error) {
	return fakeResults(job.ID, n), nil
}

// TestLeaseGrantedWithAckEqualsLeaseEndpoint drives two coordinators
// through the same steps on fake clocks: on one a worker completes each
// lease asking for the next, on the other it completes without asking
// and then posts /v1/lease. Every grant is the same — a cell, the
// reassignment of a dead worker's cell after the TTL, and wait once the
// run is done — and so is every Dispatched count.
func TestLeaseGrantedWithAckEqualsLeaseEndpoint(t *testing.T) {
	acked, polled := newSweepHarness(t), newSweepHarness(t)
	same := func(step string, a, p LeaseResponse) {
		t.Helper()
		if !reflect.DeepEqual(a, p) {
			t.Fatalf("%s: grant with the ack %+v, /v1/lease %+v", step, a, p)
		}
		if da, dp := acked.coord.Stats().Dispatched, polled.coord.Stats().Dispatched; da != dp {
			t.Fatalf("%s: Dispatched %d with the ack, %d through /v1/lease", step, da, dp)
		}
	}
	same("dead worker's lease", leaseJob(t, acked.h, "dead"), leaseJob(t, polled.h, "dead"))
	la, lp := leaseJob(t, acked.h, "w"), leaseJob(t, polled.h, "w")
	same("first lease", la, lp)
	for step := 0; step < 6; step++ {
		if step == 4 { // the dead worker's lease expires before the last cell is done
			acked.clk.advance(10*time.Second + time.Nanosecond)
			polled.clk.advance(10*time.Second + time.Nanosecond)
		}
		next := *completeNext(t, acked.h, "w", la, leaseResults(la)).Next
		if st := completeJob(t, polled.h, lp, leaseResults(lp)); st != StatusOK {
			t.Fatalf("step %d: ack %q", step, st)
		}
		var polledNext LeaseResponse
		if code := postJSON(t, polled.h, "/v1/lease", LeaseRequest{Worker: "w"}, &polledNext); code != http.StatusOK {
			t.Fatalf("step %d: lease: HTTP %d", step, code)
		}
		same(fmt.Sprintf("step %d", step), next, polledNext)
		switch {
		case step == 4 && (next.Job.ID != 0 || next.Count != 2):
			t.Fatalf("after the TTL: grant %+v, want the dead worker's jobs 0-1", next)
		case step == 5 && next.Status != StatusWait:
			t.Fatalf("run done: grant %+v, want wait", next)
		case step < 5 && next.Status != StatusJob:
			t.Fatalf("step %d: grant %+v, want a job", step, next)
		}
		la, lp = next, polledNext
	}
	for _, s := range []*sweepHarness{acked, polled} {
		if r := <-s.out; r.err != nil {
			t.Fatal(r.err)
		}
	}
	if d := acked.coord.Stats().Dispatched; d != 14 {
		t.Errorf("Dispatched = %d, want 14 (12 jobs + 2 reassigned)", d)
	}
}

// TestLeaseDrainingWorkerExitsHoldingNoLease: a worker drained while it
// runs a lease submits it without asking for another and exits; one
// drained while its completion is in flight, asking for the next lease,
// runs the lease that comes back and submits it without asking. Either
// way it exits holding no lease: every job it was granted is done.
func TestLeaseDrainingWorkerExitsHoldingNoLease(t *testing.T) {
	for _, c := range []struct {
		name      string
		inRunner  bool
		completes int
	}{
		{"drained while running", true, 1},
		{"drained while completing", false, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := newSweepHarness(t)
			w := &Worker{ID: "w", PollInterval: time.Millisecond}
			w.Runner = func(ctx context.Context, desc SweepDesc, job Job, n int) ([]experiment.Result, error) {
				if c.inRunner {
					w.Drain()
				}
				return freeRunner(ctx, desc, job, n)
			}
			x := &exchangeLog{next: s.h}
			if !c.inRunner {
				x.before = w.Drain
			}
			srv := httptest.NewServer(x)
			defer srv.Close()
			w.Base = srv.URL
			if err := w.Work(context.Background()); err != nil {
				t.Fatalf("Work = %v", err)
			}
			leases, completes := x.snapshot()
			if leases != 1 || len(completes) != c.completes {
				t.Fatalf("%d lease requests and %d completions, want 1 and %d", leases, len(completes), c.completes)
			}
			for i, req := range completes {
				if want := i < c.completes-1; req.Next != want {
					t.Errorf("completion %d asks for the next lease: %v, want %v", i, req.Next, want)
				}
			}
			if held := heldJobs(s.coord); len(held) != 0 {
				t.Errorf("drained worker exited holding jobs %v", held)
			}
			if st := s.coord.Stats(); st.Done != 2*c.completes || st.Dispatched != int64(st.Done) {
				t.Errorf("Stats = %+v, want %d jobs dispatched and done", st, 2*c.completes)
			}
		})
	}
}

// TestLeaseRefusedCompletionGrantsNothing: a completion refused with 409
// and an error report grant no lease, even when they ask for one.
func TestLeaseRefusedCompletionGrantsNothing(t *testing.T) {
	s := newSweepHarness(t)
	l := leaseJob(t, s.h, "w")
	refused := CompleteRequest{Worker: "w", SweepID: l.SweepID, Lease: l.Lease, Jobs: []JobResult{trialResult(2)}, Next: true}
	if code := postJSON(t, s.h, "/v1/complete", refused, nil); code != http.StatusConflict {
		t.Fatalf("never-leased job: HTTP %d, want 409", code)
	}
	if d := s.coord.Stats().Dispatched; d != 2 {
		t.Fatalf("Dispatched = %d after a refused completion, want 2", d)
	}
	var ack CompleteResponse
	report := CompleteRequest{Worker: "w", SweepID: l.SweepID, Lease: l.Lease, Error: "boom", Next: true}
	if code := postJSON(t, s.h, "/v1/complete", report, &ack); code != http.StatusOK || ack.Next != nil {
		t.Fatalf("error report = (%d, %+v), want 200 and no grant", code, ack)
	}
	if d := s.coord.Stats().Dispatched; d != 2 {
		t.Errorf("Dispatched = %d after an error report, want 2", d)
	}
	if r := <-s.out; r.err == nil {
		t.Error("sweep succeeded despite the error report")
	}
}

// TestLeaseStaleRunCompletionGrantsFromCurrentRun: a completion for a
// run that has ended is acknowledged as a duplicate and still gets what
// a lease request would: wait while the coordinator is idle, then the
// first cell of the run that follows.
func TestLeaseStaleRunCompletionGrantsFromCurrentRun(t *testing.T) {
	clk := newFakeClock()
	coord, err := NewCoordinator(CoordinatorConfig{LeaseTTL: 10 * time.Second, Clock: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	h := coord.Handler()
	ctx, cancel := context.WithCancel(context.Background())
	out := make(chan error, 1)
	go func() {
		_, err := coord.RunSweep(ctx, "test", core.Options{}, testSweepCfg(nil))
		out <- err
	}()
	stale := leaseJob(t, h, "w")
	cancel()
	if err := <-out; err == nil {
		t.Fatal("canceled run reported success")
	}
	if ack := completeNext(t, h, "w", stale, leaseResults(stale)); ack.Status != StatusDuplicate || ack.Next.Status != StatusWait {
		t.Fatalf("stale completion while idle = %+v next %+v, want duplicate and wait", ack, ack.Next)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	go func() {
		_, err := coord.RunSweep(ctx2, "test", core.Options{}, testSweepCfg(nil))
		out <- err
	}()
	awaitRun(coord)
	ack := completeNext(t, h, "w", stale, leaseResults(stale))
	want := Job{ID: 0}
	if ack.Status != StatusDuplicate || ack.Next.Status != StatusJob || ack.Next.SweepID != stale.SweepID+1 ||
		ack.Next.Job != want || ack.Next.Count != 2 {
		t.Fatalf("stale completion = %+v next %+v, want duplicate and run %d's jobs 0-1", ack, ack.Next, stale.SweepID+1)
	}
	if d := coord.Stats().Dispatched; d != 4 {
		t.Errorf("Dispatched = %d, want 4 (one cell of each run)", d)
	}
	cancel2()
	<-out
}

// TestLeaseRetriedCompletionGetsSameGrant: a completion sent again by
// the same worker under the same lease, as a retry does when the first
// reply is lost, gets the first grant back and dispatches nothing; the
// granted lease's own completion then gets the next cell. A worker whose
// first reply to every completion is lost after the coordinator took it
// still finishes the run on a clock that never reaches the TTL, so no
// grant was orphaned.
func TestLeaseRetriedCompletionGetsSameGrant(t *testing.T) {
	s := newSweepHarness(t)
	l := leaseJob(t, s.h, "w")
	first := completeNext(t, s.h, "w", l, leaseResults(l))
	retry := completeNext(t, s.h, "w", l, leaseResults(l))
	if retry.Status != StatusDuplicate || !reflect.DeepEqual(retry.Next, first.Next) {
		t.Fatalf("retry = %+v next %+v, want duplicate and the first grant %+v", retry, retry.Next, first.Next)
	}
	if d := s.coord.Stats().Dispatched; d != 4 {
		t.Fatalf("Dispatched = %d after a retry, want 4", d)
	}
	if next := completeNext(t, s.h, "w", *first.Next, leaseResults(*first.Next)).Next; next.Job.ID != 4 || next.Count != 2 {
		t.Fatalf("completion of the granted lease grants %+v, want jobs 4-5", next)
	}

	// End to end: the reply to each lease's first completion is lost
	// after the coordinator took it, so the worker retries every one.
	e2e := newSweepHarness(t)
	var mu sync.Mutex
	replied := map[int64]bool{}
	lossy := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		rec := httptest.NewRecorder()
		e2e.h.ServeHTTP(rec, r)
		var req CompleteRequest
		if r.URL.Path == "/v1/complete" && json.Unmarshal(body, &req) == nil {
			mu.Lock()
			lost := !replied[req.Lease]
			replied[req.Lease] = true
			mu.Unlock()
			if lost {
				http.Error(w, "reply lost", http.StatusBadGateway)
				return
			}
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	})
	srv := httptest.NewServer(lossy)
	defer srv.Close()
	var slept noSleep
	w := &Worker{Base: srv.URL, ID: "w", Runner: freeRunner, sleep: slept.sleep}
	done := make(chan error, 1)
	go func() { done <- w.Work(context.Background()) }()
	select {
	case r := <-e2e.out:
		if r.err != nil {
			t.Fatal(r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("run not done: jobs %v held by orphaned grants", heldJobs(e2e.coord))
	}
	e2e.coord.Shutdown()
	if err := <-done; err != nil {
		t.Fatalf("Work = %v", err)
	}
	if d := e2e.coord.Stats().Dispatched; d != 12 {
		t.Errorf("Dispatched = %d, want 12: a retry was granted a second lease", d)
	}
	if len(replied) != 6 {
		t.Errorf("%d leases completed, want 6", len(replied))
	}
}

// TestLeaseShutdownArrivesThroughAck: a coordinator shut down while a
// worker runs a lease answers that lease's completion with shutdown, and
// the worker exits on it without another request.
func TestLeaseShutdownArrivesThroughAck(t *testing.T) {
	s := newSweepHarness(t)
	l := leaseJob(t, s.h, "w")
	s.coord.Shutdown()
	if ack := completeNext(t, s.h, "w", l, leaseResults(l)); ack.Status != StatusOK || ack.Next.Status != StatusShutdown {
		t.Fatalf("completion after Shutdown = %+v next %+v, want ok and shutdown", ack, ack.Next)
	}

	live := newSweepHarness(t)
	x := &exchangeLog{next: live.h}
	srv := httptest.NewServer(x)
	defer srv.Close()
	w := &Worker{Base: srv.URL, ID: "w", Runner: func(ctx context.Context, desc SweepDesc, job Job, n int) ([]experiment.Result, error) {
		live.coord.Shutdown()
		return freeRunner(ctx, desc, job, n)
	}}
	if err := w.Work(context.Background()); err != nil {
		t.Fatalf("Work = %v", err)
	}
	if leases, completes := x.snapshot(); leases != 1 || len(completes) != 1 {
		t.Errorf("%d lease requests and %d completions, want 1 and 1", leases, len(completes))
	}
}

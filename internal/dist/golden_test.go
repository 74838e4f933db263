package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"bgpsim/internal/core"
)

// Golden equivalence: a figure computed by a coordinator and remote
// workers over real localhost HTTP must be byte-identical to the serial
// local run — including when a worker dies mid-sweep and its lease is
// reassigned, and whatever number of goroutines a worker runs a lease's
// trials on.

// goldenOptions is the short preset the golden tests run at: the quick
// fig3 grid (3 failure sizes × 4 MRAIs × 1 trial = 12 cells) shrunk to
// 24 nodes.
func goldenOptions() core.Options {
	o := core.QuickOptions()
	o.Nodes = 24
	return o
}

// goldenTrials is goldenOptions with trials per cell, so a lease holds
// that many jobs.
func goldenTrials(trials int) core.Options {
	o := goldenOptions()
	o.Trials = trials
	return o
}

// serialFig3 renders the reference figure with the ordinary local sweep.
func serialFig3(t *testing.T, opts core.Options) string {
	t.Helper()
	exp, err := core.Lookup("fig3")
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 1
	fig, err := exp.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	return fig.Render()
}

// distributedFig3 renders fig3 through coord, which must already be
// serving workers.
func distributedFig3(t *testing.T, ctx context.Context, coord *Coordinator, opts core.Options) string {
	t.Helper()
	exp, err := core.Lookup("fig3")
	if err != nil {
		t.Fatal(err)
	}
	opts.Sweeper = coord.SweeperFor(ctx, exp.ID, opts)
	fig, err := exp.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	return fig.Render()
}

// startWorker runs a live worker on two goroutines against base and
// reports its exit error.
func startWorker(ctx context.Context, base, id string) chan error {
	return startSimWorkers(ctx, base, id, 2)
}

// startSimWorkers is startWorker with simWorkers goroutines per lease.
func startSimWorkers(ctx context.Context, base, id string, simWorkers int) chan error {
	errc := make(chan error, 1)
	w := &Worker{Base: base, ID: id, SimWorkers: simWorkers, PollInterval: time.Millisecond}
	go func() { errc <- w.Work(ctx) }()
	return errc
}

func TestDistributedFig3ByteIdenticalToSerial(t *testing.T) {
	want := serialFig3(t, goldenOptions())

	coord, err := NewCoordinator(CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx := context.Background()
	w1 := startWorker(ctx, srv.URL, "w1")
	w2 := startWorker(ctx, srv.URL, "w2")

	got := distributedFig3(t, ctx, coord, goldenOptions())
	coord.Shutdown()
	for i, errc := range []chan error{w1, w2} {
		if err := <-errc; err != nil {
			t.Errorf("worker %d exit: %v", i+1, err)
		}
	}
	if got != want {
		t.Errorf("distributed figure differs from serial:\n--- distributed ---\n%s--- serial ---\n%s", got, want)
	}
	if st := coord.Stats(); st.Dispatched != 12 {
		t.Errorf("Dispatched = %d, want 12 (3 series × 4 MRAIs)", st.Dispatched)
	}
}

// TestDistributedFig3SimWorkersInvariant: a worker that runs each
// lease's three trials on one goroutine and one that runs them on two
// produce the serial figure byte for byte.
func TestDistributedFig3SimWorkersInvariant(t *testing.T) {
	opts := goldenTrials(3)
	want := serialFig3(t, opts)
	for _, simWorkers := range []int{1, 2} {
		coord, err := NewCoordinator(CoordinatorConfig{})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(coord.Handler())
		ctx := context.Background()
		errc := startSimWorkers(ctx, srv.URL, "w", simWorkers)
		got := distributedFig3(t, ctx, coord, opts)
		coord.Shutdown()
		if err := <-errc; err != nil {
			t.Errorf("SimWorkers %d: worker exit: %v", simWorkers, err)
		}
		srv.Close()
		if got != want {
			t.Errorf("SimWorkers %d: distributed figure differs from serial:\n--- distributed ---\n%s--- serial ---\n%s", simWorkers, got, want)
		}
		if st := coord.Stats(); st.Dispatched != 36 {
			t.Errorf("SimWorkers %d: Dispatched = %d, want 36 (12 cells × 3 trials)", simWorkers, st.Dispatched)
		}
	}
}

func TestDistributedFig3SurvivesWorkerDeath(t *testing.T) {
	opts := goldenTrials(2)
	want := serialFig3(t, opts)

	// Short leases so the dead worker's cell is reassigned quickly.
	coord, err := NewCoordinator(CoordinatorConfig{LeaseTTL: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	ctx := context.Background()

	type figOut struct {
		rendered string
		err      error
	}
	out := make(chan figOut, 1)
	go func() {
		exp, err := core.Lookup("fig3")
		if err != nil {
			out <- figOut{"", err}
			return
		}
		o := opts
		o.Sweeper = coord.SweeperFor(ctx, exp.ID, o)
		fig, err := exp.Run(o)
		if err != nil {
			out <- figOut{"", err}
			return
		}
		out <- figOut{fig.Render(), nil}
	}()

	// A doomed worker leases the first cell's two jobs and is killed
	// before reporting: it simply never completes, and its lease must
	// expire and both jobs be reassigned to the surviving worker.
	doomed, ok := tryLease(coord.Handler(), "doomed")
	if !ok {
		t.Fatal("doomed worker never got a job")
	}
	if doomed.Count != 2 {
		t.Fatalf("doomed lease holds %d jobs, want the cell's 2", doomed.Count)
	}
	survivor := startWorker(ctx, srv.URL, "survivor")

	r := <-out
	if r.err != nil {
		t.Fatal(r.err)
	}
	coord.Shutdown()
	if err := <-survivor; err != nil {
		t.Errorf("survivor exit: %v", err)
	}
	if r.rendered != want {
		t.Errorf("figure after worker death differs from serial:\n--- distributed ---\n%s--- serial ---\n%s", r.rendered, want)
	}
	// 12 cells × 2 trials, one cell leased twice (doomed, then reassigned).
	if st := coord.Stats(); st.Dispatched != 26 {
		t.Errorf("Dispatched = %d, want 26 (24 jobs + 2 reassigned from job %d)", st.Dispatched, doomed.Job.ID)
	}
}

// tryLease polls h until the active sweep hands out a job; unlike
// leaseJob it never calls into testing.T, so it is goroutine-safe and
// can report failure to the caller.
func tryLease(h http.Handler, worker string) (LeaseResponse, bool) {
	body, err := json.Marshal(LeaseRequest{Worker: worker})
	if err != nil {
		panic(fmt.Sprintf("marshal LeaseRequest: %v", err))
	}
	for i := 0; i < 20000; i++ {
		r := httptest.NewRequest(http.MethodPost, "/v1/lease", bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		var resp LeaseResponse
		if json.Unmarshal(w.Body.Bytes(), &resp) == nil && resp.Status == StatusJob {
			return resp, true
		}
		time.Sleep(100 * time.Microsecond)
	}
	return LeaseResponse{}, false
}

// TestProgressCountsCellsEverywhere pins that a sweep's progress counts
// the same cells whether it runs locally or through a coordinator: Fig 5
// at two series by three MRAIs, two trials per cell, reports six cells
// on every call and ends at (6, 6) on both paths, and the two figures
// are the same bytes.
func TestProgressCountsCellsEverywhere(t *testing.T) {
	exp, err := core.Lookup("fig5")
	if err != nil {
		t.Fatal(err)
	}
	opts := goldenTrials(2)
	opts.MRAIs = []float64{0.25, 0.75, 1.5}
	run := func(o core.Options) (string, [][2]int) {
		t.Helper()
		var prog progressRecorder
		o.Progress = prog.record
		fig, err := exp.Run(o)
		if err != nil {
			t.Fatal(err)
		}
		return fig.Render(), prog.snapshot()
	}
	local := opts
	local.Workers = 2
	wantFig, localCalls := run(local)

	coord, err := NewCoordinator(CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	ctx := context.Background()
	w := startWorker(ctx, srv.URL, "w")
	remote := opts
	remote.Sweeper = coord.SweeperFor(ctx, exp.ID, opts)
	gotFig, remoteCalls := run(remote)
	coord.Shutdown()
	if err := <-w; err != nil {
		t.Errorf("worker exit: %v", err)
	}

	for name, calls := range map[string][][2]int{"local": localCalls, "coordinator": remoteCalls} {
		for i, c := range calls {
			if c[1] != 6 || (i > 0 && c[0] <= calls[i-1][0]) {
				t.Errorf("%s: Progress calls %v, want done rising out of 6 cells", name, calls)
				break
			}
		}
		if n := len(calls); n == 0 || calls[n-1] != [2]int{6, 6} {
			t.Errorf("%s: Progress calls %v, want (6, 6) last", name, calls)
		}
	}
	if gotFig != wantFig {
		t.Errorf("distributed figure differs from local:\n--- distributed ---\n%s--- local ---\n%s", gotFig, wantFig)
	}
}

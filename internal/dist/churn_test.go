package dist

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"bgpsim/internal/churn"
	"bgpsim/internal/experiment"
	"bgpsim/internal/topology"
)

// testChurnScenario is the small churn program the distributed tests
// stream: a 30-node grid under a short Poisson link-flap program.
func testChurnScenario() churn.Scenario {
	return churn.Scenario{
		Topology: topology.Spec{Kind: topology.KindSkewed7030, N: 30},
		Scheme:   "mrai=0.5",
		Program: churn.Spec{Kind: churn.PoissonLinkFlap, Rate: 0.1, Duration: 40 * time.Second,
			HoldMin: 4 * time.Second, HoldMax: 8 * time.Second},
		Seed: 11,
	}
}

type churnOut struct {
	rr  churn.RunResult
	err error
}

// TestDistributedChurnByteIdenticalToLocal is the PR 9 acceptance pin:
// a churn metric stream produced by a coordinator and two real workers
// over localhost HTTP must render byte-identical to a single-process
// churn.Run of the same scenario, and the coordinator must observe the
// per-window stream while trials are still running.
func TestDistributedChurnByteIdenticalToLocal(t *testing.T) {
	sc := testChurnScenario()
	const trials = 3
	local, err := churn.Run(context.Background(), sc, trials, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := local.Render()

	coord, err := NewCoordinator(CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var reports []WindowReport
	coord.OnWindow = func(rep WindowReport) {
		mu.Lock()
		reports = append(reports, rep)
		mu.Unlock()
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx := context.Background()
	out := make(chan churnOut, 1)
	go func() {
		rr, err := coord.RunChurn(ctx, ChurnDesc{Scenario: sc, Trials: trials})
		out <- churnOut{rr, err}
	}()
	w1 := startWorker(ctx, srv.URL, "w1")
	w2 := startWorker(ctx, srv.URL, "w2")

	r := <-out
	if r.err != nil {
		t.Fatal(r.err)
	}
	coord.Shutdown()
	for i, errc := range []chan error{w1, w2} {
		if err := <-errc; err != nil {
			t.Errorf("worker %d exit: %v", i+1, err)
		}
	}
	if got := r.rr.Render(); got != want {
		t.Errorf("distributed churn stream differs from local:\n--- distributed ---\n%s--- local ---\n%s", got, want)
	}

	// The advisory window stream saw every window of every trial (no
	// reassignments happened, so no window streamed twice), each report
	// carrying live per-router state.
	windows := 0
	for _, tr := range r.rr.Trials {
		windows += len(tr.Windows)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(reports) != windows {
		t.Errorf("streamed %d window reports, assembled %d windows", len(reports), windows)
	}
	for _, rep := range reports {
		if rep.Trial < 0 || rep.Trial >= trials {
			t.Errorf("report names trial %d of %d", rep.Trial, trials)
		}
		if len(rep.PerNodeSent) != sc.Topology.N {
			t.Errorf("report carries %d per-node counts, want %d", len(rep.PerNodeSent), sc.Topology.N)
		}
	}
}

// TestDistributedChurnResumesAcrossRestart kills the coordinator after
// one trial completes and restarts it against the same checkpoint: only
// the unfinished trials are redone, and the assembled stream is still
// byte-identical to the local run.
func TestDistributedChurnResumesAcrossRestart(t *testing.T) {
	sc := testChurnScenario()
	const trials = 3
	local, err := churn.Run(context.Background(), sc, trials, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := local.Render()
	path := t.TempDir() + "/checkpoint.json"
	desc := ChurnDesc{Scenario: sc, Trials: trials}

	// First life: a lone worker finishes exactly trial job 0, then the
	// coordinator dies mid-program.
	coordA, err := NewCoordinator(CoordinatorConfig{CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	ctxA, cancelA := context.WithCancel(context.Background())
	outA := make(chan churnOut, 1)
	go func() {
		rr, err := coordA.RunChurn(ctxA, desc)
		outA <- churnOut{rr, err}
	}()
	hA := coordA.Handler()
	l, ok := tryLease(hA, "w")
	if !ok {
		t.Fatal("no churn job leased")
	}
	if l.Churn == nil || l.Desc != nil || l.Count != 1 {
		t.Fatalf("churn lease carries desc=%v churn=%v count=%d, want churn only, one trial", l.Desc, l.Churn, l.Count)
	}
	tr, err := churn.NewRunner().RunTrial(context.Background(), l.Churn.Scenario, l.Job.Trial, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ack CompleteResponse
	code := postJSON(t, hA, "/v1/complete", CompleteRequest{
		Worker: "w", SweepID: l.SweepID, Lease: l.Lease, Jobs: []JobResult{{ID: l.Job.ID, Trial: &tr}},
	}, &ack)
	if code != 200 || ack.Status != StatusOK {
		t.Fatalf("churn completion = (%d, %q)", code, ack.Status)
	}
	cancelA()
	if r := <-outA; r.err == nil {
		t.Fatal("interrupted churn run reported success")
	}

	// Second life: same program, same checkpoint. The finished trial is
	// restored, the remaining two are redone by real workers.
	coordB, err := NewCoordinator(CoordinatorConfig{CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coordB.Handler())
	defer srv.Close()
	ctx := context.Background()
	outB := make(chan churnOut, 1)
	go func() {
		rr, err := coordB.RunChurn(ctx, desc)
		outB <- churnOut{rr, err}
	}()
	wc := startWorker(ctx, srv.URL, "w")
	r := <-outB
	if r.err != nil {
		t.Fatal(r.err)
	}
	coordB.Shutdown()
	if err := <-wc; err != nil {
		t.Errorf("worker exit: %v", err)
	}
	if got := r.rr.Render(); got != want {
		t.Errorf("resumed churn stream differs from local:\n--- resumed ---\n%s--- local ---\n%s", got, want)
	}
	if st := coordB.Stats(); st.Dispatched != trials-1 {
		t.Errorf("resumed run dispatched %d jobs, want %d", st.Dispatched, trials-1)
	}
}

// TestWorkerDrainFinishesInFlightTrial pins the graceful-drain contract:
// Drain called while a lease is executing lets all of its jobs finish and
// submit, then the worker exits cleanly without leasing more work.
func TestWorkerDrainFinishesInFlightTrial(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx := context.Background()
	out := make(chan sweepOut, 1)
	go func() {
		fig, err := coord.RunSweep(ctx, "test", Options{}, testSweepCfg(nil))
		out <- sweepOut{fig, err}
	}()

	w := &Worker{Base: srv.URL, ID: "draining", PollInterval: time.Millisecond}
	w.Runner = func(_ context.Context, _ SweepDesc, job Job, n int) ([]experiment.Result, error) {
		w.Drain() // SIGTERM arrives mid-lease
		var rs []experiment.Result
		for id := job.ID; id < job.ID+n; id++ {
			rs = append(rs, trialResult(id).Results...)
		}
		return rs, nil
	}
	if err := w.Work(ctx); err != nil {
		t.Fatalf("drained Work = %v, want nil", err)
	}
	st := coord.Stats()
	if st.Done != 2 {
		t.Errorf("Done = %d after drain, want 2 (the in-flight lease's cell submitted)", st.Done)
	}
	if st.Dispatched != 2 {
		t.Errorf("Dispatched = %d after drain, want 2 (no further leases)", st.Dispatched)
	}

	// The remaining jobs are still completable by another worker.
	h := coord.Handler()
	for i := 0; i < 5; i++ {
		l, ok := tryLease(h, "w2")
		if !ok {
			t.Fatal("remaining job not leased")
		}
		if st := completeJob(t, h, l, leaseResults(l)); st != StatusOK {
			t.Fatalf("complete jobs from %d ack = %q", l.Job.ID, st)
		}
	}
	if r := <-out; r.err != nil {
		t.Fatal(r.err)
	}
}

// TestDistributedChurnHonoursSpecPolicy pins that a churn trial applies
// the policy its topology spec names, as every scenario trial does: the
// annotated run differs from the bare one, and a coordinator and a
// worker reproduce it byte for byte.
func TestDistributedChurnHonoursSpecPolicy(t *testing.T) {
	bare := testChurnScenario()
	sc := bare
	sc.Topology.Relationships = topology.RelModeHierarchical
	const trials = 2
	plain, err := churn.Run(context.Background(), bare, trials, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	local, err := churn.Run(context.Background(), sc, trials, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if local.Digest() == plain.Digest() {
		t.Fatal("a hierarchical-policy churn run streams what the policy-free run streams")
	}

	coord, err := NewCoordinator(CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	ctx := context.Background()
	out := make(chan churnOut, 1)
	go func() {
		rr, err := coord.RunChurn(ctx, ChurnDesc{Scenario: sc, Trials: trials})
		out <- churnOut{rr, err}
	}()
	w := startWorker(ctx, srv.URL, "w1")
	r := <-out
	if r.err != nil {
		t.Fatal(r.err)
	}
	coord.Shutdown()
	if err := <-w; err != nil {
		t.Errorf("worker exit: %v", err)
	}
	if got, want := r.rr.Render(), local.Render(); got != want {
		t.Errorf("distributed policy churn stream differs from local:\n--- distributed ---\n%s--- local ---\n%s", got, want)
	}
}

package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"bgpsim/internal/experiment"
)

// testSweepCfg is a 2-series × 3-x grid with 2 trials per cell (12
// trial jobs). The coordinator never materializes cells, so Cell stays
// nil.
func testSweepCfg(progress func(done, total int)) experiment.SweepConfig {
	return experiment.SweepConfig{
		SeriesNames: []string{"a", "b"},
		Xs:          []float64{1, 2, 3},
		Trials:      2,
		Progress:    progress,
	}
}

// postJSON drives a handler directly (no sockets) and decodes a 200 body.
func postJSON(t *testing.T, h http.Handler, path string, req, resp any) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code == http.StatusOK && resp != nil {
		if err := json.Unmarshal(w.Body.Bytes(), resp); err != nil {
			t.Fatalf("decode %s response: %v", path, err)
		}
	}
	return w.Code
}

// trialResults is the one-entry completion payload for trial job jobID
// in the testSweepCfg grid (2 trials per cell), consistent with a local
// assembly of fakeResults(cell, 2) per cell.
func trialResults(jobID int) []experiment.Result {
	return []experiment.Result{fakeResults(jobID/2, 2)[jobID%2]}
}

// leaseJob polls until the active sweep hands out a job (RunSweep runs in
// a goroutine, so the first polls may race its registration).
func leaseJob(t *testing.T, h http.Handler, worker string) LeaseResponse {
	t.Helper()
	for i := 0; i < 5000; i++ {
		var resp LeaseResponse
		if code := postJSON(t, h, "/v1/lease", LeaseRequest{Worker: worker}, &resp); code != http.StatusOK {
			t.Fatalf("lease: HTTP %d", code)
		}
		if resp.Status == StatusJob {
			return resp
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatal("no job leased")
	return LeaseResponse{}
}

// completeJob submits results for a leased job and returns the ack status.
func completeJob(t *testing.T, h http.Handler, l LeaseResponse, results []experiment.Result) string {
	t.Helper()
	var ack CompleteResponse
	code := postJSON(t, h, "/v1/complete", CompleteRequest{
		Worker: "w", SweepID: l.SweepID, JobID: l.Job.ID, Lease: l.Lease, Results: results,
	}, &ack)
	if code != http.StatusOK {
		t.Fatalf("complete job %d: HTTP %d", l.Job.ID, code)
	}
	return ack.Status
}

// progressRecorder captures Progress calls for later inspection.
type progressRecorder struct {
	mu    sync.Mutex
	calls [][2]int
}

func (p *progressRecorder) record(done, total int) {
	p.mu.Lock()
	p.calls = append(p.calls, [2]int{done, total})
	p.mu.Unlock()
}

func (p *progressRecorder) snapshot() [][2]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([][2]int(nil), p.calls...)
}

type sweepOut struct {
	fig experiment.Figure
	err error
}

func TestOutOfOrderCompletionsYieldMonotonicProgress(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var prog progressRecorder
	out := make(chan sweepOut, 1)
	go func() {
		fig, err := coord.RunSweep(context.Background(), "test", 0, Options{}, testSweepCfg(prog.record))
		out <- sweepOut{fig, err}
	}()
	h := coord.Handler()
	leases := make([]LeaseResponse, 12)
	for i := range leases {
		leases[i] = leaseJob(t, h, "w")
		if leases[i].Job.ID != i {
			t.Fatalf("lease %d handed out job %d", i, leases[i].Job.ID)
		}
		// Trial-granularity addressing: job i is trial i%2 of cell i/2.
		want := Job{ID: i, Series: (i / 2) / 3, X: (i / 2) % 3, Trial: i % 2}
		if leases[i].Job != want {
			t.Fatalf("lease %d job = %+v, want %+v", i, leases[i].Job, want)
		}
	}
	// Workers report completions in exactly reverse dispatch order.
	for i := 11; i >= 0; i-- {
		if st := completeJob(t, h, leases[i], trialResults(leases[i].Job.ID)); st != StatusOK {
			t.Fatalf("complete job %d ack = %q", leases[i].Job.ID, st)
		}
	}
	r := <-out
	if r.err != nil {
		t.Fatal(r.err)
	}
	if len(r.fig.Series) != 2 || len(r.fig.Series[0].Points) != 3 {
		t.Fatalf("figure shape %dx%d, want 2x3", len(r.fig.Series), len(r.fig.Series[0].Points))
	}
	calls := prog.snapshot()
	if len(calls) != 12 {
		t.Fatalf("Progress called %d times, want 12: %v", len(calls), calls)
	}
	for i, c := range calls {
		if c != [2]int{i + 1, 12} {
			t.Errorf("Progress call %d = %v, want (%d, 12)", i, c, i+1)
		}
	}
}

func TestDuplicateCompletionAcknowledgedNotDoubleCounted(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var prog progressRecorder
	out := make(chan sweepOut, 1)
	go func() {
		fig, err := coord.RunSweep(context.Background(), "test", 0, Options{}, testSweepCfg(prog.record))
		out <- sweepOut{fig, err}
	}()
	h := coord.Handler()
	l := leaseJob(t, h, "w")
	if st := completeJob(t, h, l, trialResults(l.Job.ID)); st != StatusOK {
		t.Fatalf("first completion ack = %q", st)
	}
	if st := completeJob(t, h, l, trialResults(l.Job.ID)); st != StatusDuplicate {
		t.Fatalf("identical duplicate ack = %q, want %q", st, StatusDuplicate)
	}
	if st := coord.Stats(); st.Done != 1 {
		t.Errorf("Stats().Done = %d after duplicate, want 1", st.Done)
	}
	if calls := prog.snapshot(); len(calls) != 1 {
		t.Errorf("Progress called %d times after duplicate, want 1", len(calls))
	}

	// A divergent duplicate is a determinism violation: 409, sweep fails.
	code := postJSON(t, h, "/v1/complete", CompleteRequest{
		Worker: "w", SweepID: l.SweepID, JobID: l.Job.ID, Lease: l.Lease, Results: fakeResults(99, 1),
	}, nil)
	if code != http.StatusConflict {
		t.Fatalf("divergent duplicate: HTTP %d, want 409", code)
	}
	if r := <-out; r.err == nil {
		t.Fatal("sweep succeeded despite divergent results")
	}

	// Stragglers of the dead sweep are acknowledged and dropped.
	var ack CompleteResponse
	code = postJSON(t, h, "/v1/complete", CompleteRequest{
		Worker: "w", SweepID: l.SweepID, JobID: 3, Lease: 42, Results: trialResults(3),
	}, &ack)
	if code != http.StatusOK || ack.Status != StatusDuplicate {
		t.Errorf("stale-sweep completion = (%d, %q), want (200, duplicate)", code, ack.Status)
	}
}

func TestWorkerReportedJobErrorFailsSweep(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan sweepOut, 1)
	go func() {
		fig, err := coord.RunSweep(context.Background(), "test", 0, Options{}, testSweepCfg(nil))
		out <- sweepOut{fig, err}
	}()
	h := coord.Handler()
	l := leaseJob(t, h, "w")
	code := postJSON(t, h, "/v1/complete", CompleteRequest{
		Worker: "w", SweepID: l.SweepID, JobID: l.Job.ID, Lease: l.Lease, Error: "boom",
	}, nil)
	if code != http.StatusOK {
		t.Fatalf("error report: HTTP %d", code)
	}
	if r := <-out; r.err == nil {
		t.Fatal("sweep succeeded despite worker-reported job failure")
	}
}

func TestCheckpointResumeSkipsCompletedCells(t *testing.T) {
	path := filepath.Join(t.TempDir(), "checkpoint.json")
	cfg := testSweepCfg(nil)

	// First coordinator life: complete half the grid, then die.
	coordA, err := NewCoordinator(CoordinatorConfig{CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	ctxA, cancelA := context.WithCancel(context.Background())
	outA := make(chan sweepOut, 1)
	go func() {
		fig, err := coordA.RunSweep(ctxA, "test", 0, Options{}, cfg)
		outA <- sweepOut{fig, err}
	}()
	hA := coordA.Handler()
	completed := map[int]bool{}
	for i := 0; i < 6; i++ {
		l := leaseJob(t, hA, "w")
		completed[l.Job.ID] = true
		if st := completeJob(t, hA, l, trialResults(l.Job.ID)); st != StatusOK {
			t.Fatalf("complete job %d ack = %q", l.Job.ID, st)
		}
	}
	cancelA()
	if r := <-outA; r.err == nil {
		t.Fatal("interrupted sweep reported success")
	}

	// Second life: same sweep, same checkpoint. Exactly the unfinished
	// cells are handed out; the first Progress call reports the restored
	// count.
	var prog progressRecorder
	cfgB := testSweepCfg(prog.record)
	coordB, err := NewCoordinator(CoordinatorConfig{CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	outB := make(chan sweepOut, 1)
	go func() {
		fig, err := coordB.RunSweep(context.Background(), "test", 0, Options{}, cfgB)
		outB <- sweepOut{fig, err}
	}()
	hB := coordB.Handler()
	var leases []LeaseResponse
	for i := 0; i < 6; i++ {
		l := leaseJob(t, hB, "w")
		if completed[l.Job.ID] {
			t.Fatalf("checkpointed job %d re-dispatched", l.Job.ID)
		}
		leases = append(leases, l)
	}
	// Job-count accounting: 6 restored, 6 dispatched, nothing more to lease.
	st := coordB.Stats()
	if !st.Active || st.Total != 12 || st.Done != 6 || st.Resumed != 6 || st.Dispatched != 6 {
		t.Fatalf("resumed Stats = %+v, want Active total=12 done=6 resumed=6 dispatched=6", st)
	}
	var idle LeaseResponse
	if postJSON(t, hB, "/v1/lease", LeaseRequest{Worker: "w"}, &idle); idle.Status != StatusWait {
		t.Fatalf("extra lease after full dispatch = %q, want wait", idle.Status)
	}
	for _, l := range leases {
		if st := completeJob(t, hB, l, trialResults(l.Job.ID)); st != StatusOK {
			t.Fatalf("complete job %d ack = %q", l.Job.ID, st)
		}
	}
	r := <-outB
	if r.err != nil {
		t.Fatal(r.err)
	}
	calls := prog.snapshot()
	if len(calls) != 7 || calls[0] != [2]int{6, 12} {
		t.Fatalf("resumed Progress calls = %v, want (6,12) then 7..12", calls)
	}

	// The merged figure is identical to assembling every cell locally.
	perCell := make([][]experiment.Result, 6)
	for i := range perCell {
		perCell[i] = fakeResults(i, 2)
	}
	want, err := experiment.AssembleFigure(cfg, perCell)
	if err != nil {
		t.Fatal(err)
	}
	if got, w := r.fig.Render(), want.Render(); got != w {
		t.Errorf("resumed figure differs from local assembly:\n--- got ---\n%s--- want ---\n%s", got, w)
	}

	// Third life: the checkpoint now covers the whole grid, so the sweep
	// finishes with zero leases handed out.
	coordC, err := NewCoordinator(CoordinatorConfig{CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	fig, err := coordC.RunSweep(context.Background(), "test", 0, Options{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, w := fig.Render(), want.Render(); got != w {
		t.Errorf("fully-restored figure differs from local assembly")
	}
	if st := coordC.Stats(); st.Dispatched != 0 {
		t.Errorf("fully-restored sweep dispatched %d jobs, want 0", st.Dispatched)
	}
}

func TestShutdownRefusesWorkAndSweeps(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	coord.Shutdown()
	var resp LeaseResponse
	postJSON(t, coord.Handler(), "/v1/lease", LeaseRequest{Worker: "w"}, &resp)
	if resp.Status != StatusShutdown {
		t.Errorf("lease after Shutdown = %q, want %q", resp.Status, StatusShutdown)
	}
	if _, err := coord.RunSweep(context.Background(), "test", 0, Options{}, testSweepCfg(nil)); err == nil {
		t.Error("RunSweep accepted after Shutdown")
	}
}

// spaces is an endless request body of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestOversizeBodyRejected: a body the coordinator would otherwise
// buffer without bound is cut off at maxBodyBytes and answered 413;
// malformed JSON inside the cap is still a 400, and so is a JSON value
// with anything but white space after it.
func TestOversizeBodyRejected(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	h := coord.Handler()
	for _, c := range []struct {
		name string
		body io.Reader
		want int
	}{
		{"oversize", io.LimitReader(spaces{}, maxBodyBytes+1), http.StatusRequestEntityTooLarge},
		{"at the cap", io.MultiReader(io.LimitReader(spaces{}, maxBodyBytes-2), strings.NewReader("{}")), http.StatusOK},
		{"malformed", strings.NewReader("{"), http.StatusBadRequest},
		{"two values", strings.NewReader(`{"worker":"w"}{"worker":"x"}`), http.StatusBadRequest},
		{"trailing text", strings.NewReader(`{"worker":"w"} trailing`), http.StatusBadRequest},
		{"trailing space", strings.NewReader("{\"worker\":\"w\"}\n "), http.StatusOK},
	} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/complete", c.body))
		if w.Code != c.want {
			t.Errorf("%s: HTTP %d, want %d (%s)", c.name, w.Code, c.want, strings.TrimSpace(w.Body.String()))
		}
	}
}

package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"bgpsim/internal/core"
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

// trialResult is the completion payload for trial job jobID in the
// testSweepCfg grid (2 trials per cell), consistent with a local
// assembly of fakeResults(cell, 2) per cell.
func trialResult(jobID int) JobResult {
	return JobResult{ID: jobID, Results: fakeResults(jobID/2, 2)[jobID%2 : jobID%2+1]}
}

// leaseResults is the correct completion batch for every job of l.
func leaseResults(l LeaseResponse) []JobResult {
	var batch []JobResult
	for id := l.Job.ID; id < l.Job.ID+l.Count; id++ {
		batch = append(batch, trialResult(id))
	}
	return batch
}

// leaseJob polls until the active sweep hands out a lease (RunSweep runs
// in a goroutine, so the first polls may race its registration).
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

// completeJob submits batch under lease l and returns the ack status.
func completeJob(t *testing.T, h http.Handler, l LeaseResponse, batch []JobResult) string {
	t.Helper()
	var ack CompleteResponse
	code := postJSON(t, h, "/v1/complete", CompleteRequest{
		Worker: "w", SweepID: l.SweepID, Lease: l.Lease, Jobs: batch,
	}, &ack)
	if code != http.StatusOK {
		t.Fatalf("complete jobs from %d: HTTP %d", l.Job.ID, code)
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
		fig, err := coord.RunSweep(context.Background(), "test", core.Options{}, testSweepCfg(prog.record))
		out <- sweepOut{fig, err}
	}()
	h := coord.Handler()
	leases := make([]LeaseResponse, 6)
	for c := range leases {
		leases[c] = leaseJob(t, h, "w")
		// A lease is cell c's two trials: jobs 2c and 2c+1.
		want := Job{ID: 2 * c, Series: c / 3, X: c % 3, Trial: 0}
		if leases[c].Job != want || leases[c].Count != 2 {
			t.Fatalf("lease %d = %+v × %d, want %+v × 2", c, leases[c].Job, leases[c].Count, want)
		}
	}
	// Workers report completions in exactly reverse dispatch order.
	for c := 5; c >= 0; c-- {
		if st := completeJob(t, h, leases[c], leaseResults(leases[c])); st != StatusOK {
			t.Fatalf("complete cell %d ack = %q", c, st)
		}
	}
	r := <-out
	if r.err != nil {
		t.Fatal(r.err)
	}
	if len(r.fig.Series) != 2 || len(r.fig.Series[0].Points) != 3 {
		t.Fatalf("figure shape %dx%d, want 2x3", len(r.fig.Series), len(r.fig.Series[0].Points))
	}
	// Progress counts cells, as a local sweep does: one call per cell.
	calls := prog.snapshot()
	if len(calls) != 6 {
		t.Fatalf("Progress called %d times, want 6: %v", len(calls), calls)
	}
	for i, c := range calls {
		if c != [2]int{i + 1, 6} {
			t.Errorf("Progress call %d = %v, want (%d, 6)", i, c, i+1)
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
		fig, err := coord.RunSweep(context.Background(), "test", core.Options{}, testSweepCfg(prog.record))
		out <- sweepOut{fig, err}
	}()
	h := coord.Handler()
	l := leaseJob(t, h, "w")
	if st := completeJob(t, h, l, leaseResults(l)); st != StatusOK {
		t.Fatalf("first completion ack = %q", st)
	}
	if st := completeJob(t, h, l, leaseResults(l)); st != StatusDuplicate {
		t.Fatalf("identical duplicate ack = %q, want %q", st, StatusDuplicate)
	}
	if st := coord.Stats(); st.Done != 2 {
		t.Errorf("Stats().Done = %d after duplicate, want 2", st.Done)
	}
	if calls := prog.snapshot(); len(calls) != 1 {
		t.Errorf("Progress called %d times after duplicate, want 1 (one cell)", len(calls))
	}

	// One divergent payload in a batch is a determinism violation: 409,
	// sweep fails, and the batch's new job is not recorded.
	next := leaseJob(t, h, "w")
	batch := append(leaseResults(l)[:1], JobResult{ID: 1, Results: fakeResults(99, 1)})
	batch = append(batch, leaseResults(next)...)
	code := postJSON(t, h, "/v1/complete", CompleteRequest{
		Worker: "w", SweepID: l.SweepID, Lease: next.Lease, Jobs: batch,
	}, nil)
	if code != http.StatusConflict {
		t.Fatalf("divergent duplicate: HTTP %d, want 409", code)
	}
	if st := coord.Stats(); st.Active && st.Done != 2 {
		t.Errorf("Stats().Done = %d after the divergent batch, want 2", st.Done)
	}
	if r := <-out; r.err == nil {
		t.Fatal("sweep succeeded despite divergent results")
	}

	// Stragglers of the dead sweep are acknowledged and dropped.
	var ack CompleteResponse
	code = postJSON(t, h, "/v1/complete", CompleteRequest{
		Worker: "w", SweepID: l.SweepID, Lease: 42, Jobs: []JobResult{trialResult(3)},
	}, &ack)
	if code != http.StatusOK || ack.Status != StatusDuplicate {
		t.Errorf("stale-sweep completion = (%d, %q), want (200, duplicate)", code, ack.Status)
	}
}

// TestLeaseBatchesOnFakeClock drives a sweep's cell leases through the
// handler on a fake clock: a worker dies holding a two-job lease; a
// batch naming a job outside the table or never leased is refused whole
// without failing the run; after the TTL exactly the dead worker's jobs
// are reassigned; its late batch is a duplicate; and Dispatched counts
// trial jobs, reassignments included.
func TestLeaseBatchesOnFakeClock(t *testing.T) {
	clk := newFakeClock()
	coord, err := NewCoordinator(CoordinatorConfig{LeaseTTL: 10 * time.Second, Clock: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan sweepOut, 1)
	go func() {
		fig, err := coord.RunSweep(context.Background(), "test", core.Options{}, testSweepCfg(nil))
		out <- sweepOut{fig, err}
	}()
	h := coord.Handler()
	doomed := leaseJob(t, h, "doomed")
	if doomed.Job.ID != 0 || doomed.Count != 2 {
		t.Fatalf("first lease = job %d × %d, want job 0 × 2", doomed.Job.ID, doomed.Count)
	}

	for name, batch := range map[string][]JobResult{
		"never leased":        {trialResult(0), trialResult(2)},
		"outside the table":   {trialResult(1), {ID: 12, Results: fakeResults(6, 1)}},
		"named twice":         {trialResult(0), trialResult(0)},
		"two results":         {{ID: 0, Results: fakeResults(0, 2)}},
		"no job and no error": nil,
	} {
		code := postJSON(t, h, "/v1/complete", CompleteRequest{Worker: "doomed", SweepID: doomed.SweepID, Lease: doomed.Lease, Jobs: batch}, nil)
		if code != http.StatusConflict {
			t.Errorf("%s: HTTP %d, want 409", name, code)
		}
		if st := coord.Stats(); !st.Active || st.Done != 0 {
			t.Fatalf("%s: Stats = %+v, want the run active with nothing recorded", name, st)
		}
	}

	// Another worker takes every other cell, finishing all but the last.
	var last LeaseResponse
	for c := 1; c < 6; c++ {
		l := leaseJob(t, h, "w")
		if l.Job.ID != 2*c || l.Count != 2 {
			t.Fatalf("lease = job %d × %d, want job %d × 2", l.Job.ID, l.Count, 2*c)
		}
		if c == 5 {
			last = l
			break
		}
		if st := completeJob(t, h, l, leaseResults(l)); st != StatusOK {
			t.Fatalf("cell %d ack = %q", c, st)
		}
	}
	var idle LeaseResponse
	if postJSON(t, h, "/v1/lease", LeaseRequest{Worker: "w"}, &idle); idle.Status != StatusWait {
		t.Fatalf("lease with every job validly held = %q, want wait", idle.Status)
	}

	clk.advance(10*time.Second + time.Nanosecond)
	survivor := leaseJob(t, h, "survivor")
	if survivor.Job != doomed.Job || survivor.Count != 2 || survivor.Lease == doomed.Lease {
		t.Fatalf("reassignment = job %+v × %d lease %d, want the dead worker's job %+v × 2 under a new lease",
			survivor.Job, survivor.Count, survivor.Lease, doomed.Job)
	}
	if st := completeJob(t, h, survivor, leaseResults(survivor)); st != StatusOK {
		t.Fatalf("survivor ack = %q", st)
	}
	if st := completeJob(t, h, doomed, leaseResults(doomed)); st != StatusDuplicate {
		t.Fatalf("dead worker's late batch ack = %q, want %q", st, StatusDuplicate)
	}
	if st := coord.Stats(); st.Done != 10 || st.Dispatched != 14 {
		t.Errorf("Stats = %+v, want done=10 and dispatched=14 (12 jobs + 2 reassigned)", st)
	}
	if st := completeJob(t, h, last, leaseResults(last)); st != StatusOK {
		t.Fatalf("last cell ack = %q", st)
	}
	if r := <-out; r.err != nil {
		t.Fatal(r.err)
	}
}

func TestWorkerReportedJobErrorFailsSweep(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan sweepOut, 1)
	go func() {
		fig, err := coord.RunSweep(context.Background(), "test", core.Options{}, testSweepCfg(nil))
		out <- sweepOut{fig, err}
	}()
	h := coord.Handler()
	l := leaseJob(t, h, "w")
	code := postJSON(t, h, "/v1/complete", CompleteRequest{
		Worker: "w", SweepID: l.SweepID, Lease: l.Lease, Error: "boom",
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
		fig, err := coordA.RunSweep(ctxA, "test", core.Options{}, cfg)
		outA <- sweepOut{fig, err}
	}()
	hA := coordA.Handler()
	completed := map[int]bool{}
	for i := 0; i < 3; i++ {
		l := leaseJob(t, hA, "w")
		for _, r := range leaseResults(l) {
			completed[r.ID] = true
		}
		if st := completeJob(t, hA, l, leaseResults(l)); st != StatusOK {
			t.Fatalf("complete jobs from %d ack = %q", l.Job.ID, st)
		}
	}
	cancelA()
	if r := <-outA; r.err == nil {
		t.Fatal("interrupted sweep reported success")
	}

	// Second life: same sweep, same checkpoint. Exactly the unfinished
	// cells are handed out; the first Progress call reports the restored
	// cells.
	var prog progressRecorder
	cfgB := testSweepCfg(prog.record)
	coordB, err := NewCoordinator(CoordinatorConfig{CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	outB := make(chan sweepOut, 1)
	go func() {
		fig, err := coordB.RunSweep(context.Background(), "test", core.Options{}, cfgB)
		outB <- sweepOut{fig, err}
	}()
	hB := coordB.Handler()
	var leases []LeaseResponse
	for i := 0; i < 3; i++ {
		l := leaseJob(t, hB, "w")
		for _, r := range leaseResults(l) {
			if completed[r.ID] {
				t.Fatalf("checkpointed job %d re-dispatched", r.ID)
			}
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
		if st := completeJob(t, hB, l, leaseResults(l)); st != StatusOK {
			t.Fatalf("complete jobs from %d ack = %q", l.Job.ID, st)
		}
	}
	r := <-outB
	if r.err != nil {
		t.Fatal(r.err)
	}
	calls := prog.snapshot()
	if len(calls) != 4 || calls[0] != [2]int{3, 6} {
		t.Fatalf("resumed Progress calls = %v, want (3,6) then 4..6", calls)
	}
	for i, c := range calls {
		if c != [2]int{3 + i, 6} {
			t.Errorf("resumed Progress call %d = %v, want (%d, 6)", i, c, 3+i)
		}
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
	fig, err := coordC.RunSweep(context.Background(), "test", core.Options{}, cfg)
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
	if _, err := coord.RunSweep(context.Background(), "test", core.Options{}, testSweepCfg(nil)); err == nil {
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

// TestNonFiniteAxisIsAnError pins that a NaN or infinite value on an
// Options axis fails a run with an error, locally and through the
// coordinator alike, instead of panicking where the descriptor is keyed.
// No worker is needed: every case fails before a job is published.
func TestNonFiniteAxisIsAnError(t *testing.T) {
	exp, err := core.Lookup("fig3")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		patch func(*core.Options)
	}{
		{"mrai-nan", func(o *core.Options) { o.MRAIs = []float64{0.5, math.NaN()} }},
		{"mrai-inf", func(o *core.Options) { o.MRAIs = []float64{math.Inf(1), 0.5} }},
		{"failure-nan", func(o *core.Options) { o.FailureSizes = []float64{10, math.NaN()} }},
	} {
		t.Run(c.name, func(t *testing.T) {
			opts := goldenOptions()
			c.patch(&opts)
			opts.Workers = 1
			_, local := exp.Run(opts)
			if local == nil {
				t.Fatal("local run: no error")
			}
			coord, err := NewCoordinator(CoordinatorConfig{})
			if err != nil {
				t.Fatal(err)
			}
			opts.Sweeper = coord.SweeperFor(context.Background(), exp.ID, opts)
			if _, remote := exp.Run(opts); remote == nil || remote.Error() != local.Error() {
				t.Errorf("distributed run: error %v, local run: %v", remote, local)
			}
		})
	}
	if _, err := (SweepDesc{Options: core.Options{MRAIs: []float64{math.NaN()}}}).Key(); err == nil {
		t.Error("SweepDesc.Key of a NaN axis: no error")
	}
}

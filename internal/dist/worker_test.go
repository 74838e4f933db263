package dist

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bgpsim/internal/core"
	"bgpsim/internal/experiment"
)

// noSleep records requested delays without waiting.
type noSleep struct {
	delays []time.Duration
}

func (s *noSleep) sleep(_ context.Context, d time.Duration) error {
	s.delays = append(s.delays, d)
	return nil
}

// shutdownCoordinator serves a coordinator that immediately tells
// workers to exit.
func shutdownCoordinator(t *testing.T) *httptest.Server {
	t.Helper()
	coord, err := NewCoordinator(CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	coord.Shutdown()
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(srv.Close)
	return srv
}

func TestWorkerRetriesTransientErrorsWithBackoff(t *testing.T) {
	inner := shutdownCoordinator(t)
	var calls atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 3 {
			http.Error(w, "temporarily overloaded", http.StatusServiceUnavailable)
			return
		}
		inner.Config.Handler.ServeHTTP(w, r)
	}))
	defer flaky.Close()

	var slept noSleep
	w := &Worker{Base: flaky.URL, ID: "w", Backoff: Backoff{Jitter: -1}, sleep: slept.sleep}
	if err := w.Work(context.Background()); err != nil {
		t.Fatalf("Work = %v, want nil (shutdown after retries)", err)
	}
	// Three 503s before success: sleeps are Delay(0..2) of the default
	// exponential schedule, jitter disabled.
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond}
	if len(slept.delays) != len(want) {
		t.Fatalf("slept %v, want %v", slept.delays, want)
	}
	for i := range want {
		if slept.delays[i] != want[i] {
			t.Errorf("retry sleep %d = %v, want %v", i, slept.delays[i], want[i])
		}
	}
}

func TestWorkerPermanentErrorNoRetry(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "no such route", http.StatusNotFound)
	}))
	defer srv.Close()

	var slept noSleep
	w := &Worker{Base: srv.URL, ID: "w", sleep: slept.sleep}
	if err := w.Work(context.Background()); err == nil {
		t.Fatal("Work = nil for a 404 coordinator")
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("4xx retried: %d requests, want 1", n)
	}
	if len(slept.delays) != 0 {
		t.Errorf("4xx slept %v, want no sleeps", slept.delays)
	}
}

// TestWorkerRejectsTrailingData: a reply that is a JSON value followed
// by anything else is malformed, and retrying cannot fix it.
func TestWorkerRejectsTrailingData(t *testing.T) {
	for _, body := range []string{
		`{"status":"wait"}{"status":"shutdown"}`,
		`{"status":"shutdown"} trailing`,
	} {
		var calls atomic.Int64
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			io.WriteString(w, body)
		}))
		var slept noSleep
		w := &Worker{Base: srv.URL, ID: "w", sleep: slept.sleep}
		err := w.Work(context.Background())
		srv.Close()
		if err == nil || !strings.Contains(err.Error(), "decode response") {
			t.Errorf("reply %q: Work = %v, want a decode error", body, err)
		}
		if n := calls.Load(); n != 1 || len(slept.delays) != 0 {
			t.Errorf("reply %q: %d requests and %d sleeps, want 1 and 0 (no retry)", body, n, len(slept.delays))
		}
	}
}

func TestWorkerNeverConnectedIsError(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	srv.Close() // connection refused from the first request

	var slept noSleep
	w := &Worker{Base: srv.URL, ID: "w", MaxAttempts: 2, sleep: slept.sleep}
	if err := w.Work(context.Background()); err == nil {
		t.Fatal("Work = nil against a dead coordinator it never reached")
	}
}

func TestWorkerCoordinatorGoneAfterConnectExitsClean(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			reply(w, LeaseResponse{Status: StatusWait})
			return
		}
		http.Error(w, "dying", http.StatusInternalServerError)
	}))
	defer srv.Close()

	var slept noSleep
	w := &Worker{Base: srv.URL, ID: "w", MaxAttempts: 2, sleep: slept.sleep}
	if err := w.Work(context.Background()); err != nil {
		t.Fatalf("Work = %v, want nil (coordinator finished and went away)", err)
	}
}

func TestBaseURL(t *testing.T) {
	if got := BaseURL("host:9090"); got != "http://host:9090" {
		t.Errorf("BaseURL(host:9090) = %q", got)
	}
	if got := BaseURL("https://host:9090"); got != "https://host:9090" {
		t.Errorf("BaseURL(https://...) = %q", got)
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
		fig, err := coord.RunSweep(ctx, "test", core.Options{}, testSweepCfg(nil))
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

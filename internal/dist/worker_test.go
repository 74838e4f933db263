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

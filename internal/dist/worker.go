package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"time"

	"bgpsim/internal/core"
	"bgpsim/internal/experiment"
)

// JobRunner executes a sweep lease: the n trial jobs of one cell that
// start at job, returning their results in trial order. The default is
// RegistryRunner; tests and benchmarks inject no-op runners.
type JobRunner func(ctx context.Context, desc SweepDesc, job Job, n int) ([]experiment.Result, error)

// Worker is the client half of the protocol: it polls the coordinator
// for leases, executes their jobs, and submits results, retrying transient
// HTTP failures with exponential backoff. Configure the exported fields
// before calling Run; the zero value of every optional field selects a
// sensible default.
type Worker struct {
	// Base is the coordinator's base URL ("http://host:port").
	Base string
	// ID names this worker in leases and logs (default "host-pid").
	ID string
	// PollInterval is the idle delay after a StatusWait response
	// (default 200ms).
	PollInterval time.Duration
	// SimWorkers bounds the goroutines a lease's trials run on
	// (0 = GOMAXPROCS, 1 = serial); results are identical for every
	// value.
	SimWorkers int
	// Runner executes leases (nil = RegistryRunner(SimWorkers)).
	Runner JobRunner
	// Log receives per-lease progress lines. nil discards.
	Log *log.Logger

	// sleep waits between retries/polls, and jitter draws the uniform
	// variate that scales a retry's delay; tests inject fakes.
	sleep  func(ctx context.Context, d time.Duration) error
	jitter func() float64

	// draining is set by Drain: finish and submit the in-flight lease,
	// then exit instead of leasing more work.
	draining atomic.Bool

	// Reused from one exchange to the next by the Work goroutine: the
	// request as encoded, the reply as read, the completion's per-job
	// entries.
	leaseURL, completeURL string
	reqBuf, respBuf       bytes.Buffer
	batch                 []JobResult
}

// Drain asks the worker to stop gracefully: the in-flight lease (if
// any, at most one cell's trials) runs to completion and its results are
// submitted without asking for another, then Work returns nil holding no
// lease. A lease already granted with that completion's acknowledgement,
// when Drain comes while it is being sent, is run and submitted too.
// Safe to call from any goroutine (typically a SIGTERM handler).
func (w *Worker) Drain() { w.draining.Store(true) }

// errUnreachable marks retry-budget exhaustion talking to the
// coordinator.
var errUnreachable = errors.New("dist: coordinator unreachable")

// BaseURL normalizes a coordinator address for Worker.Base: a bare
// host:port gains an http:// scheme, full URLs pass through.
func BaseURL(addr string) string {
	if strings.Contains(addr, "://") {
		return addr
	}
	return "http://" + addr
}

// Work runs the worker loop until the coordinator shuts down or
// disappears: lease, execute, complete, repeat. After its first lease a
// busy worker takes each lease from the acknowledgement of its previous
// completion; it posts /v1/lease only when it holds none, at the start
// and after a wait. A coordinator that becomes unreachable after at
// least one successful exchange is treated as a normal end of work (it
// exits when its figures are done) and Work returns nil; a coordinator
// that was never reachable is an error. Job execution errors are
// reported to the coordinator (which fails the run) and end the loop
// with the error.
func (w *Worker) Work(ctx context.Context) error {
	w.applyDefaults()
	runner := w.Runner
	if runner == nil {
		runner = RegistryRunner(w.SimWorkers)
	}
	everConnected := false
	jobs := 0
	var lease LeaseResponse
	granted := false // lease came with the last acknowledgement
	for {
		if !granted {
			if w.draining.Load() {
				w.Log.Printf("dist: worker %s: drained after %d jobs; exiting", w.ID, jobs)
				return nil
			}
			lease = LeaseResponse{}
			err := w.post(ctx, w.leaseURL, LeaseRequest{Worker: w.ID}, &lease)
			switch {
			case errors.Is(err, errUnreachable) && everConnected:
				w.Log.Printf("dist: worker %s: coordinator gone after %d jobs; exiting", w.ID, jobs)
				return nil
			case err != nil:
				return err
			}
			everConnected = true
		}
		granted = false
		switch lease.Status {
		case StatusShutdown:
			w.Log.Printf("dist: worker %s: coordinator shut down after %d jobs; exiting", w.ID, jobs)
			return nil
		case StatusWait:
			if err := w.sleep(ctx, w.PollInterval); err != nil {
				return err
			}
		case StatusJob:
			// A granted lease runs even if Drain came after it was asked
			// for: exiting would leave it to expire.
			if lease.Desc == nil {
				return fmt.Errorf("dist: lease for job %d without a sweep descriptor", lease.Job.ID)
			}
			rs, jerr := runner(ctx, *lease.Desc, lease.Job, lease.Count)
			batch := w.batch[:0]
			for i := range rs {
				batch = append(batch, JobResult{ID: lease.Job.ID + i, Results: rs[i : i+1]})
			}
			w.batch = batch
			complete := CompleteRequest{Worker: w.ID, SweepID: lease.SweepID, Lease: lease.Lease, Jobs: batch, Next: !w.draining.Load()}
			if jerr != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				complete.Jobs, complete.Error, complete.Next = nil, jerr.Error(), false
			}
			var ack CompleteResponse
			err := w.post(ctx, w.completeURL, complete, &ack)
			switch {
			case errors.Is(err, errUnreachable):
				// The lease expires and another worker redoes its trials.
				w.Log.Printf("dist: worker %s: coordinator gone mid-submit; exiting", w.ID)
				return nil
			case err != nil:
				return err
			}
			if jerr != nil {
				return fmt.Errorf("dist: %s: %w", describe(lease), jerr)
			}
			jobs += len(batch)
			if w.Log.Writer() != io.Discard { // or format a line per lease for nobody
				w.Log.Printf("dist: worker %s: %s done (%s)", w.ID, describe(lease), ack.Status)
			}
			if ack.Next != nil {
				lease, granted = *ack.Next, true
			}
		default:
			return fmt.Errorf("dist: unknown lease status %q", lease.Status)
		}
	}
}

// describe names a lease's jobs for logs and errors.
func describe(lease LeaseResponse) string {
	return fmt.Sprintf("jobs %d-%d (%s series %d x %d trials %d-%d)", lease.Job.ID, lease.Job.ID+lease.Count-1,
		lease.Desc.Experiment, lease.Job.Series, lease.Job.X, lease.Job.Trial, lease.Job.Trial+lease.Count-1)
}

// applyDefaults fills zero-valued optional fields.
func (w *Worker) applyDefaults() {
	if w.ID == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		w.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if w.PollInterval <= 0 {
		w.PollInterval = 200 * time.Millisecond
	}
	if w.Log == nil {
		w.Log = log.New(io.Discard, "", 0)
	}
	if w.sleep == nil {
		w.sleep = sleepCtx
	}
	if w.jitter == nil {
		w.jitter = rand.Float64
	}
	w.leaseURL = strings.TrimSuffix(w.Base, "/") + "/v1/lease"
	w.completeURL = strings.TrimSuffix(w.Base, "/") + "/v1/complete"
}

// post sends one JSON request, retrying transient failures (network
// errors, 5xx) with backoff. Permanent failures (4xx, malformed
// responses) return immediately; exhausting the retry budget returns
// errUnreachable.
func (w *Worker) post(ctx context.Context, url string, reqBody, respBody any) error {
	w.reqBuf.Reset()
	if err := json.NewEncoder(&w.reqBuf).Encode(reqBody); err != nil {
		return fmt.Errorf("dist: marshal request: %w", err)
	}
	payload := bytes.TrimSuffix(w.reqBuf.Bytes(), []byte("\n")) // Encode's, not the value's
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			if err := w.sleep(ctx, backoffDelay(attempt-1, w.jitter())); err != nil {
				return err
			}
		}
		lastErr = w.tryPost(ctx, url, payload, respBody)
		if lastErr == nil {
			return nil
		}
		var p permanentError
		if errors.As(lastErr, &p) {
			return p.err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		w.Log.Printf("dist: worker %s: %s attempt %d/%d: %v", w.ID, url, attempt+1, maxAttempts, lastErr)
	}
	return fmt.Errorf("%w: %s: %v", errUnreachable, url, lastErr)
}

// permanentError wraps failures that retrying cannot fix.
type permanentError struct{ err error }

func (p permanentError) Error() string { return p.err.Error() }

// tryPost performs one HTTP exchange; the reply must be one JSON value.
func (w *Worker) tryPost(ctx context.Context, url string, payload []byte, respBody any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return permanentError{fmt.Errorf("dist: build request: %w", err)}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := httpClient.Do(req)
	if err != nil {
		return err // transient: connection refused, timeout, ...
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 500 {
		return fmt.Errorf("dist: %s: %s", url, resp.Status)
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return permanentError{fmt.Errorf("dist: %s: %s: %s", url, resp.Status, strings.TrimSpace(string(msg)))}
	}
	w.respBuf.Reset()
	if _, err = w.respBuf.ReadFrom(resp.Body); err == nil {
		err = json.Unmarshal(w.respBuf.Bytes(), respBody)
	}
	if err != nil {
		return permanentError{fmt.Errorf("dist: %s: decode response: %w", url, err)}
	}
	return nil
}

// httpClient carries every worker's requests.
var httpClient = &http.Client{Timeout: requestTimeout}

// sleepCtx sleeps d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// RegistryRunner returns the default sweep lease executor. A lease is a
// run of trials of one grid cell: its descriptor is resolved to its sweep
// configuration (resolveSweep) only when it differs from the last one
// that resolved, and the lease is experiment.SimPool.RunCell on that
// configuration, nothing else. Remembering one is enough — a coordinator
// serves one run at a time — and one that does not resolve fails each of
// its leases alike. Seeds derive from grid indices, so the results are
// bit-identical to a local sweep's. The runner keeps one simulator pool
// across leases and serves one lease at a time (a Worker's loop), whose
// trials fan out over simWorkers goroutines (0 = GOMAXPROCS).
func RegistryRunner(simWorkers int) JobRunner {
	pool := experiment.NewSimPool()
	var memo SweepDesc
	var cfg experiment.SweepConfig
	resolved := false
	return func(ctx context.Context, desc SweepDesc, job Job, n int) ([]experiment.Result, error) {
		if !resolved || !reflect.DeepEqual(memo, desc) {
			c, err := resolveSweep(desc)
			if err != nil {
				return nil, err
			}
			c.Workers = simWorkers
			memo, cfg, resolved = desc, c, true
		}
		return pool.RunCell(ctx, cfg, job.Series, job.X, job.Trial, n)
	}
}

// resolveSweep rebuilds the grid desc addresses from the shared
// registry: the experiment's Grid at the descriptor's options. It
// refuses another protocol version and a grid shape this binary does not
// build.
func resolveSweep(desc SweepDesc) (experiment.SweepConfig, error) {
	if desc.Protocol != ProtocolVersion {
		return experiment.SweepConfig{}, fmt.Errorf("dist: coordinator speaks %q, this worker %q", desc.Protocol, ProtocolVersion)
	}
	exp, err := core.Lookup(desc.Experiment)
	if err != nil {
		return experiment.SweepConfig{}, err
	}
	cfg, err := exp.Grid(desc.Options)
	if err != nil {
		return experiment.SweepConfig{}, err
	}
	if cfg, err = experiment.NormalizeSweep(cfg); err != nil {
		return experiment.SweepConfig{}, err
	}
	if got := (Grid{Series: len(cfg.SeriesNames), Xs: len(cfg.Xs), Trials: cfg.Trials}); got != desc.Grid {
		return experiment.SweepConfig{}, fmt.Errorf("dist: grid mismatch for %s: coordinator %+v, worker %+v — binaries out of sync",
			desc.Experiment, desc.Grid, got)
	}
	return cfg, nil
}

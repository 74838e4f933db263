package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"time"

	"bgpsim/internal/core"
	"bgpsim/internal/experiment"
)

// CoordinatorConfig tunes a Coordinator. The zero value works: 30s
// leases, no checkpoint, wall clock, silent log.
type CoordinatorConfig struct {
	// LeaseTTL is how long a worker holds a lease before its jobs may be
	// reassigned; it should comfortably exceed the slowest cell's trials
	// (default 30s — paper-scale trials run in seconds).
	LeaseTTL time.Duration
	// CheckpointPath, when set, persists completed trial jobs after
	// every completion so an interrupted run resumes without redoing
	// them.
	CheckpointPath string
	// Clock overrides time.Now (fake clocks in tests).
	Clock func() time.Time
	// Log receives operational messages (lease reassignment, checkpoint
	// errors). nil discards.
	Log *log.Logger
}

// Coordinator owns the server half of the protocol: it turns a sweep
// grid into a trial-job table, leases a cell's jobs at a time to workers
// over HTTP, verifies and records completions, and merges results into
// the figure. One run is active at a time (a figure run sweeps its
// experiments one after another); workers polling between runs are told
// to wait. All state is guarded by one mutex — request handlers do
// table lookups and JSON, never simulation work, so the lock is never
// held long.
type Coordinator struct {
	leaseTTL time.Duration
	ckptPath string
	now      func() time.Time
	log      *log.Logger

	mu         sync.Mutex
	cur        *activeRun
	seq        int64
	shutdown   bool
	ckpt       *checkpointFile
	dispatched int64
}

// activeRun is the coordinator's state for one active sweep. Jobs are
// trials: a job's ID is cell·Trials + trial.
type activeRun struct {
	id       int64
	key      string
	desc     SweepDesc
	cfg      experiment.SweepConfig
	table    *leaseTable
	total    int
	resumed  int
	err      error
	finished chan struct{} // closed once (all jobs done) or err is set
	// acked is, per worker, the last lease granted with a completion's
	// acknowledgement, so a retried completion gets it back (nextLocked).
	acked map[string]ackedGrant
}

// ackedGrant is the lease next granted with the acknowledgement of a
// completion of lease lease of run sweep.
type ackedGrant struct {
	sweep, lease int64
	next         LeaseResponse
}

// NewCoordinator builds a coordinator, loading the checkpoint file if
// one is configured and present.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	c := &Coordinator{
		leaseTTL: cfg.LeaseTTL,
		ckptPath: cfg.CheckpointPath,
		now:      cfg.Clock,
		log:      cfg.Log,
	}
	if c.leaseTTL <= 0 {
		c.leaseTTL = 30 * time.Second
	}
	if c.now == nil {
		c.now = time.Now
	}
	if c.log == nil {
		c.log = log.New(io.Discard, "", 0)
	}
	ckpt := &checkpointFile{Schema: checkpointSchema, Sweeps: map[string]*sweepCheckpoint{}}
	if c.ckptPath != "" {
		var err error
		if ckpt, err = loadCheckpoint(c.ckptPath); err != nil {
			return nil, err
		}
	}
	c.ckpt = ckpt
	return c, nil
}

// install registers run as the active run, preloading the trial jobs
// the checkpoint holds under its key and reporting the cells they
// complete. A lease covers at most one cell's trials. Caller must not
// hold c.mu.
func (c *Coordinator) install(run *activeRun) error {
	run.table = newLeaseTable(run.total, run.desc.Grid.Trials, c.leaseTTL, c.now)
	run.acked = map[string]ackedGrant{}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.shutdown {
		return fmt.Errorf("dist: coordinator is shut down")
	}
	if c.cur != nil {
		return fmt.Errorf("dist: a run is already active")
	}
	c.seq++
	run.id = c.seq
	// Resume: preload trial jobs this run already completed in a
	// previous coordinator life. Entries that are not one trial's result
	// in range (corrupt or hand-edited checkpoint) are dropped rather
	// than trusted.
	if sc := c.ckpt.Sweeps[run.key]; sc != nil {
		for _, d := range sc.Done {
			if d.ID < 0 || d.ID >= run.total || len(d.Results) != 1 {
				c.log.Printf("dist: checkpoint entry for job %d ignored", d.ID)
				continue
			}
			run.table.record(d)
		}
	}
	run.resumed = run.table.done
	if run.resumed > 0 {
		c.log.Printf("dist: run %d: resumed %d/%d trial jobs from checkpoint", run.id, run.resumed, run.total)
	}
	c.cur = run
	if run.table.cells > 0 {
		run.progress()
	}
	if run.table.remaining() == 0 {
		close(run.finished)
	}
	return nil
}

// waitAndDetach blocks until the run finishes or ctx cancels, then
// clears the active-run slot and returns the run's error.
func (c *Coordinator) waitAndDetach(ctx context.Context, run *activeRun) error {
	select {
	case <-ctx.Done():
		c.mu.Lock()
		c.cur = nil
		c.mu.Unlock()
		return ctx.Err()
	case <-run.finished:
	}
	c.mu.Lock()
	c.cur = nil
	err := run.err
	c.mu.Unlock()
	return err
}

// RunSweep executes cfg through remote workers: it publishes the grid
// as trial jobs, blocks until every trial's result is in (or ctx is
// canceled, or a worker reports a failure), and merges them into the
// figure in fixed (series, x, trial) order — byte-identical to a local
// Sweep of the same cfg. expID and opts address the grid for workers
// (only opts' scale fields are sent); cfg is the coordinator's own copy
// (its Cell closure is never invoked — trials are materialized
// worker-side). cfg.Progress counts cells, as in a local sweep: a
// resumed run first reports the cells its checkpoint completed.
func (c *Coordinator) RunSweep(ctx context.Context, expID string, opts core.Options, cfg experiment.SweepConfig) (experiment.Figure, error) {
	cfg, err := experiment.NormalizeSweep(cfg)
	if err != nil {
		return experiment.Figure{}, err
	}
	desc := SweepDesc{
		Protocol:   ProtocolVersion,
		Experiment: expID,
		Options:    opts,
		Grid:       Grid{Series: len(cfg.SeriesNames), Xs: len(cfg.Xs), Trials: cfg.Trials},
	}
	key, err := desc.Key()
	if err != nil {
		return experiment.Figure{}, err
	}
	run := &activeRun{
		desc:     desc,
		key:      key,
		cfg:      cfg,
		total:    desc.Grid.Series * desc.Grid.Xs * desc.Grid.Trials,
		finished: make(chan struct{}),
	}
	if err := c.install(run); err != nil {
		return experiment.Figure{}, err
	}
	if err := c.waitAndDetach(ctx, run); err != nil {
		return experiment.Figure{}, err
	}
	// Reassemble per-cell trial slices from the per-trial jobs: job IDs
	// are cell·Trials + trial, so walking jobs in ID order fills each
	// cell's trials in trial order.
	trials := cfg.Trials
	perCell := make([][]experiment.Result, desc.Grid.Series*desc.Grid.Xs)
	for i := range run.table.jobs {
		perCell[i/trials] = append(perCell[i/trials], run.table.jobs[i].result.Results...)
	}
	return experiment.AssembleFigure(cfg, perCell)
}

// SweeperFor adapts the coordinator into the experiment.Sweeper hook for
// one experiment: install the result as Options.Sweeper and the
// experiment's grid is executed remotely. Workers rebuild that grid from
// expID and opts (core.Experiment.Grid), so opts must be the options the
// experiment runs at.
func (c *Coordinator) SweeperFor(ctx context.Context, expID string, opts core.Options) experiment.Sweeper {
	return func(cfg experiment.SweepConfig) (experiment.Figure, error) {
		return c.RunSweep(ctx, expID, opts, cfg)
	}
}

// Shutdown tells polling workers to exit: subsequent lease requests
// answer StatusShutdown and new runs are refused. It does not stop an
// active run; call it after the figure pipeline finishes.
func (c *Coordinator) Shutdown() {
	c.mu.Lock()
	c.shutdown = true
	c.mu.Unlock()
}

// Stats snapshots coordinator state (the same data /v1/status serves).
func (c *Coordinator) Stats() StatusResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := StatusResponse{Protocol: ProtocolVersion, Dispatched: c.dispatched}
	if c.cur != nil {
		st.Active = true
		st.SweepID = c.cur.id
		st.Total = c.cur.total
		st.Done = c.cur.table.done
		st.Resumed = c.cur.resumed
	}
	return st
}

// Handler returns the protocol's HTTP handler: POST /v1/lease, POST
// /v1/complete, GET /v1/status.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/lease", c.handleLease)
	mux.HandleFunc("POST /v1/complete", c.handleComplete)
	mux.HandleFunc("GET /v1/status", c.handleStatus)
	return mux
}

// handleLease answers a worker's first request for work, and its polls
// after a wait; a busy worker gets its next lease with each completion.
func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decode(w, r, &req) {
		return
	}
	c.mu.Lock()
	resp := c.grantLocked(req.Worker)
	c.mu.Unlock()
	reply(w, resp)
}

// grantLocked answers a request for work at this moment: a lease of the
// active run's next free jobs, wait, or shutdown. Caller holds c.mu.
func (c *Coordinator) grantLocked(worker string) LeaseResponse {
	switch {
	case c.shutdown:
		return LeaseResponse{Status: StatusShutdown}
	case c.cur == nil || c.cur.err != nil:
		// Idle, or a failing run draining: nothing to hand out.
		return LeaseResponse{Status: StatusWait}
	}
	g, ok := c.cur.table.acquire()
	if !ok {
		return LeaseResponse{Status: StatusWait}
	}
	c.dispatched += int64(g.n)
	if g.reassigned {
		c.log.Printf("dist: run %d: jobs %d-%d reassigned to %s", c.cur.id, g.first, g.first+g.n-1, worker)
	}
	desc := c.cur.desc
	cell := g.first / desc.Grid.Trials
	return LeaseResponse{
		Status:  StatusJob,
		SweepID: c.cur.id,
		Desc:    &desc,
		Job: Job{
			ID:     g.first,
			Series: cell / desc.Grid.Xs,
			X:      cell % desc.Grid.Xs,
			Trial:  g.first % desc.Grid.Trials,
		},
		Count: g.n,
		Lease: g.lease,
	}
}

// nextLocked grants the lease a completion asks for. A retried
// completion — the same worker, run and lease as the one this run last
// granted for — gets that grant back, not a second one that would sit
// unrun until it expired. Caller holds c.mu.
func (c *Coordinator) nextLocked(req *CompleteRequest) *LeaseResponse {
	run := c.cur
	if run != nil && run.err == nil && !c.shutdown {
		if a, ok := run.acked[req.Worker]; ok && a.sweep == req.SweepID && a.lease == req.Lease {
			return &a.next
		}
	}
	next := c.grantLocked(req.Worker)
	if next.Status == StatusJob {
		run.acked[req.Worker] = ackedGrant{sweep: req.SweepID, lease: req.Lease, next: next}
	}
	return &next
}

// handleComplete records a worker's finished (or failed) lease and, when
// asked, grants its next one. A batch is taken whole or refused whole
// (409, nothing recorded, nothing granted); only a payload that diverges
// from a recorded one also fails the run. An error report fails the run
// and grants nothing.
func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !decode(w, r, &req) {
		return
	}
	c.mu.Lock()
	ack, err := c.completeLocked(&req)
	if err == nil && req.Next && req.Error == "" {
		ack.Next = c.nextLocked(&req)
	}
	c.mu.Unlock()
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	reply(w, ack)
}

// completeLocked records req and returns its acknowledgement, or the
// reason the batch is refused. Caller holds c.mu.
func (c *Coordinator) completeLocked(req *CompleteRequest) (CompleteResponse, error) {
	run := c.cur
	if run == nil || req.SweepID != run.id {
		// A straggler finishing a lease of a run that already ended: its
		// results merged from another worker (or the run was
		// abandoned). Acknowledge and drop.
		return CompleteResponse{Status: StatusDuplicate}, nil
	}
	if req.Error != "" {
		c.failLocked(run, fmt.Errorf("dist: worker %s: lease %d: %s", req.Worker, req.Lease, req.Error))
		return CompleteResponse{Status: StatusOK}, nil
	}
	if err := run.table.check(req.Jobs); err != nil {
		if errors.Is(err, errDiverged) {
			// Divergent duplicate results poison the merge: fail the
			// run loudly rather than emit a figure of unknowable
			// provenance.
			c.failLocked(run, err)
		}
		return CompleteResponse{}, err
	}
	status := StatusDuplicate
	for _, res := range req.Jobs {
		cells := run.table.cells
		if !run.table.record(res) {
			continue
		}
		status = StatusOK
		if run.table.cells > cells {
			run.progress()
		}
		if c.ckptPath != "" {
			c.ckpt.record(run.key, run.desc, res)
		}
	}
	if status == StatusOK {
		if c.ckptPath != "" {
			if err := c.ckpt.save(c.ckptPath); err != nil {
				c.log.Printf("dist: %v (continuing without checkpoint)", err)
			}
		}
		if run.table.remaining() == 0 && run.err == nil {
			close(run.finished)
		}
	}
	return CompleteResponse{Status: status}, nil
}

// progress reports the run's completed cells to its Progress callback.
// The contract (serialized, strictly monotonic) holds whatever order
// worker reports arrive in: every call is made under c.mu, and
// table.cells grows exactly once per cell, when its last trial job is
// recorded. Caller holds c.mu.
func (run *activeRun) progress() {
	if run.cfg.Progress != nil {
		run.cfg.Progress(run.table.cells, run.desc.Grid.Series*run.desc.Grid.Xs)
	}
}

// failLocked marks the run failed and wakes the waiter. Caller holds c.mu.
func (c *Coordinator) failLocked(run *activeRun, err error) {
	if run.err == nil {
		run.err = err
		close(run.finished)
	}
}

// handleStatus serves the coordinator snapshot.
func (c *Coordinator) handleStatus(w http.ResponseWriter, _ *http.Request) {
	reply(w, c.Stats())
}

// maxBodyBytes caps a request body. The largest legitimate one is the
// completion of a cell's trials, about 220 bytes per trial (its job ID
// and one result of ten integers), so this leaves room for some seventy
// thousand trials per cell, far past any grid's.
const maxBodyBytes = 16 << 20

// bodyBufs recycles the buffers request bodies are read into: handlers
// run concurrently, a goroutine per connection, so they are pooled, not
// owned. One that a completion grew past 64 KiB, some three hundred
// trials of one cell, is not kept: a lease request is tens of bytes and
// a paper-scale completion, three trials, under a kilobyte.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decode parses a request body that is one JSON value and nothing else,
// replying 413 to one longer than maxBodyBytes and 400 to any other failure.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	buf := bodyBufs.Get().(*bytes.Buffer)
	buf.Reset()
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err == nil {
		err = json.Unmarshal(buf.Bytes(), v)
	}
	if buf.Cap() <= 64<<10 {
		bodyBufs.Put(buf)
	}
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	http.Error(w, "dist: bad request: "+err.Error(), code)
	return false
}

// NewServer returns an http.Server for a coordinator's handler with
// read-side limits, so a peer that connects and then stalls cannot hold
// a connection open for ever. There is no write timeout: replies
// are small, and a completion that saves a checkpoint may take its time.
func NewServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
}

// reply writes a JSON response.
func reply(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The response is already committed; nothing useful to do.
		_ = err
	}
}

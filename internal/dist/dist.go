// Package dist distributes figure sweeps across machines: a coordinator
// decomposes a sweep grid into trial-granularity jobs (one job per trial
// of one (series, x) cell) and leases them over an HTTP/JSON protocol, a
// run of one cell's jobs per lease; workers pull leases, run them
// through the ordinary experiment machinery, and push back one result
// per job. A completion also asks for the worker's next lease and its
// acknowledgement carries it, so after its first lease a busy worker
// makes one round trip per lease. The trials of a grid are independent
// runs, which is the one thing this package splits.
//
// # Why remote execution can be byte-identical
//
// Scenarios carry closures (schemes mutate bgp.Params arbitrarily), so
// jobs never ship scenarios. A job is an address into the shared
// experiment registry instead: (experiment ID, scale options, series
// index, x index, trial). Every experiment is one grid, and both sides
// build it from the same registry entry over the same options
// (core.Experiment.Grid); the seed of every trial derives from grid
// indices alone (experiment.CellScenario + the trial stride), so
// the worker materializes bit-for-bit the scenario the coordinator's
// local sweep would have run. The scale options are core.Options itself,
// whose scale fields carry their wire names; a worker runs a lease
// through the same trial loop as a local sweep
// (experiment.CellRunner.RunTrials). The coordinator merges returned
// trial results in fixed (series, x, trial) order through the same
// assembly code Sweep uses — the emitted figure is byte-identical to a
// local run by construction — and, like Sweep, reports progress once per
// completed cell.
//
// # Robustness
//
// Jobs are leased, not handed out: a lease expires if the worker dies
// mid-lease and the jobs it still holds are reassigned (lease.go). Result submission is
// idempotent — duplicate completions for a job are verified identical
// against the recorded results, never double-counted; a mismatch is a
// determinism violation and fails the run loudly. Workers retry
// transient HTTP errors with exponential backoff and jitter
// (backoff.go). The coordinator checkpoints completed trials to a file
// after every completion, so an interrupted run resumes without redoing
// finished work (checkpoint.go).
package dist

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"bgpsim/internal/core"
	"bgpsim/internal/experiment"
)

// ProtocolVersion names the wire protocol. It is embedded in every run
// descriptor and checked by workers; bump it whenever job addressing,
// seed derivation, or result encoding changes meaning. v2 moved job
// granularity from cells (all trials batched) to single trials and
// added churn runs. v3 dropped two fields of the options and of churn
// scenarios that selected an engine which no longer exists (DESIGN.md
// §7): a v3 worker would run such a v2 job on one event loop and submit
// bytes of another determinism class, so it refuses v2 instead. v4
// keeps trial jobs but leases a run of one cell's jobs at once
// (LeaseResponse.Count) and completes them in one request
// (CompleteRequest.Jobs); a v3 worker would run only the first. v5 grants
// the next lease with the acknowledgement of a completion that asks for
// one (CompleteRequest.Next, CompleteResponse.Next), so a lease costs one
// round trip, not two; jobs and results are v4's, and the bump keeps a
// fleet on binaries that agree on how a lease is handed out. v6 drops
// the descriptor's sweep index: every experiment is one grid, which a
// worker rebuilds from the registry entry (core.Experiment.Grid) instead
// of re-running the experiment to find it. v7 drops churn runs: a v7
// worker cannot run a v6 coordinator's churn leases, so it refuses v6
// outright rather than serve that coordinator's sweeps alone.
const ProtocolVersion = "bgpsim/dist/v7"

// recordProtocol is the protocol SweepDesc.Key fingerprints a sweep
// under: the last version that changed what a recorded sweep trial
// means. v7 left sweep jobs and results as v6 had them, so a checkpoint
// a v6 coordinator wrote still resumes. Set it to ProtocolVersion in a
// bump that changes a sweep trial's address or result.
const recordProtocol = "bgpsim/dist/v6"

// Lease response statuses.
const (
	// StatusJob means the response carries leased jobs.
	StatusJob = "job"
	// StatusWait means no job is available right now; poll again.
	StatusWait = "wait"
	// StatusShutdown means the coordinator is exiting; the worker
	// should too.
	StatusShutdown = "shutdown"
	// StatusOK acknowledges a completion.
	StatusOK = "ok"
	// StatusDuplicate acknowledges a completion whose jobs were all
	// complete already, with results that matched the recorded ones.
	StatusDuplicate = "duplicate"
)

// Grid is the shape of a sweep grid: the worker recomputes the grid from
// the descriptor and refuses jobs whose shape disagrees (version skew
// between coordinator and worker binaries would otherwise silently remap
// cells).
type Grid struct {
	// Series is the number of series (curves).
	Series int `json:"series"`
	// Xs is the number of sweep points per series.
	Xs int `json:"xs"`
	// Trials is the replication count per cell.
	Trials int `json:"trials"`
}

// SweepDesc addresses one sweep grid inside the experiment registry; it
// is everything a worker needs to reconstruct the grid's cells.
type SweepDesc struct {
	// Protocol is ProtocolVersion.
	Protocol string `json:"protocol"`
	// Experiment is the registry ID ("fig3", "ablation-policy", ...).
	Experiment string `json:"experiment"`
	// Options is the scale the experiment runs at, as the figure
	// pipeline received it: both sides normalize it inside
	// core.Experiment.Grid. Only its scale fields are encoded.
	Options core.Options `json:"options"`
	// Grid is the resulting grid shape, for worker-side validation.
	Grid Grid `json:"grid"`
}

// Key fingerprints the descriptor for checkpoint addressing: two sweeps
// share a key iff a completed cell of one is a valid completed cell of
// the other. It is the SHA-256, in hex, of the descriptor's JSON with
// Protocol set to recordProtocol. It fails only for a descriptor JSON
// cannot encode: a NaN or infinite value on an Options axis.
func (d SweepDesc) Key() (string, error) {
	d.Protocol = recordProtocol
	b, err := json.Marshal(d)
	if err != nil {
		return "", fmt.Errorf("dist: encode SweepDesc: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Job addresses one trial job: trial Trial of cell (Series, X).
type Job struct {
	// ID is the trial-granularity job index: (si*Grid.Xs + xi)*Grid.Trials
	// + trial.
	ID int `json:"id"`
	// Series is the series index si.
	Series int `json:"series"`
	// X is the x index xi (an index into the axis, not the value).
	X int `json:"x"`
	// Trial is the trial index within the cell.
	Trial int `json:"trial"`
}

// LeaseRequest asks the coordinator for work.
type LeaseRequest struct {
	// Worker identifies the requester (diagnostics).
	Worker string `json:"worker"`
}

// LeaseResponse answers a lease request. Its first field is Status, so
// the head of the body tells a grant from a wait poll.
type LeaseResponse struct {
	// Status is StatusJob, StatusWait, or StatusShutdown.
	Status string `json:"status"`
	// SweepID identifies the active run; completions must echo it.
	SweepID int64 `json:"sweep_id,omitempty"`
	// Desc describes the sweep the jobs belong to (set with StatusJob).
	Desc *SweepDesc `json:"desc,omitempty"`
	// Job is the first leased trial (set with StatusJob).
	Job Job `json:"job,omitempty"`
	// Count is the number of leased trials: jobs Job.ID … Job.ID+Count−1,
	// which are trials Job.Trial … Job.Trial+Count−1 of Job's cell. A
	// lease never crosses a cell.
	Count int `json:"count,omitempty"`
	// Lease is the lease token; completions must echo it.
	Lease int64 `json:"lease,omitempty"`
}

// JobResult is one trial job's payload: the trial's result as a
// one-entry slice. Result fields are integers (durations in
// nanoseconds), so the JSON round trip is exact and coordinator-side
// aggregation is bit-equal to local. The checkpoint stores these entries
// as completions carry them.
type JobResult struct {
	// ID is the trial job index (Job.ID).
	ID int `json:"id"`
	// Results holds the trial's result.
	Results []experiment.Result `json:"results,omitempty"`
}

// CompleteRequest submits a finished lease's results (or its failure).
type CompleteRequest struct {
	// Worker identifies the submitter.
	Worker string `json:"worker"`
	// SweepID identifies the run; Lease is the lease token.
	SweepID int64 `json:"sweep_id"`
	Lease   int64 `json:"lease"`
	// Jobs holds one entry per leased job, in ascending job order.
	Jobs []JobResult `json:"jobs,omitempty"`
	// Error reports a deterministic job failure (bad experiment,
	// simulation error): the coordinator fails the whole run, matching
	// local Sweep's first-error semantics.
	Error string `json:"error,omitempty"`
	// Next asks for the worker's next lease in the acknowledgement; a
	// draining worker leaves it false.
	Next bool `json:"next,omitempty"`
}

// CompleteResponse acknowledges a completion.
type CompleteResponse struct {
	// Status is StatusOK or StatusDuplicate.
	Status string `json:"status"`
	// Next answers CompleteRequest.Next: exactly what POST /v1/lease
	// would have answered at that moment. It is nil when the request did
	// not ask, and for an error report; a refused completion (409) has
	// no acknowledgement at all.
	Next *LeaseResponse `json:"next,omitempty"`
}

// StatusResponse reports coordinator state (monitoring and tests).
type StatusResponse struct {
	// Protocol is ProtocolVersion.
	Protocol string `json:"protocol"`
	// Active reports whether a run is in progress.
	Active bool `json:"active"`
	// SweepID identifies the active run (0 when idle).
	SweepID int64 `json:"sweep_id,omitempty"`
	// Total and Done count the active run's trial jobs.
	Total int `json:"total,omitempty"`
	Done  int `json:"done,omitempty"`
	// Dispatched counts trial jobs handed out since the coordinator
	// started, reassignments included (a lease of n jobs counts n).
	Dispatched int64 `json:"dispatched"`
	// Resumed counts trials preloaded from the checkpoint for the
	// active run — work the coordinator did not redo.
	Resumed int `json:"resumed,omitempty"`
}

package churn

import (
	"context"
	"fmt"
	"sync"
	"time"

	"bgpsim/internal/bgp"
	"bgpsim/internal/experiment"
	"bgpsim/internal/topology"
)

// Scenario is one fully specified churn run: a topology, a scheme named
// in the wire syntax (experiment.ParseScheme; empty keeps the default
// parameters), and the program to stream over it. Every field is
// JSON-encodable, so a scenario can be saved or logged whole.
type Scenario struct {
	Topology topology.Spec `json:"topology"`
	Scheme   string        `json:"scheme,omitempty"`
	Program  Spec          `json:"program"`
	Seed     int64         `json:"seed"`
}

// WindowResult is one measurement window of a churn trial: the
// convergence observables attributed to one perturbation, from its
// injection to the next perturbation (or quiescence for the last).
// Convergence still in flight when the next perturbation arrives is
// censored at the window boundary — its residual activity counts into
// the next window, the honest semantics under continuous churn.
type WindowResult struct {
	// Index is the position of the window's perturbation in the event
	// stream.
	Index int `json:"index"`
	// Event is the perturbation kind label (EventKind.String).
	Event string `json:"event"`
	// At is the window open time as an offset from program start.
	At time.Duration `json:"at"`
	// Delay is the convergence delay observed in the window.
	Delay         time.Duration `json:"delay"`
	Announcements int           `json:"announcements"`
	Withdrawals   int           `json:"withdrawals"`
	Processed     int           `json:"processed"`
	Discarded     int           `json:"discarded"`
	RouteChanges  int           `json:"route_changes"`
}

// TrialResult is one trial's full window stream in event order.
type TrialResult struct {
	Trial int `json:"trial"`
	// Start is the absolute simulated time of program start: the settle
	// margin after the installed converged state, which sits at time
	// zero. Window offsets are relative to it.
	Start   time.Duration  `json:"start"`
	Windows []WindowResult `json:"windows"`
}

// RunResult is a complete churn run: all trials in trial order.
type RunResult struct {
	Scenario Scenario      `json:"scenario"`
	Trials   []TrialResult `json:"trials"`
}

// WindowObserver receives windows as they close, before the trial (let
// alone the run) completes — the streaming face of a churn run. trial
// identifies the emitting trial; perNodeSent is the window's per-router
// send count (live per-router convergence state). With
// multiple trial workers, observers run serialized but trial-interleaved;
// the deterministic artifact is the assembled RunResult, not the
// observation order.
type WindowObserver func(trial int, w WindowResult, perNodeSent []int)

// Runner executes churn trials, retaining a simulator pool across calls
// so every trial after the first skips construction, whatever world it
// runs on — the same warm-fleet behaviour as a dist worker's pool. Safe
// for concurrent use.
type Runner struct {
	pool *experiment.SimPool
}

// NewRunner returns a runner with an empty simulator pool.
func NewRunner() *Runner {
	return &Runner{pool: experiment.NewSimPool()}
}

// Validate checks the whole scenario before any trial runs: the topology
// spec, the scheme and the program. Run and bgpsim -churn call it, so a
// scenario no trial could run is refused up front instead of failing when
// its first trial starts.
func (sc Scenario) Validate() error {
	if err := sc.Topology.Validate(); err != nil {
		return err
	}
	if _, err := sc.scheme(); err != nil {
		return err
	}
	return sc.Program.Validate()
}

// scheme parses the scenario's scheme; empty is the zero Scheme, which
// keeps the default parameters.
func (sc Scenario) scheme() (experiment.Scheme, error) {
	if sc.Scheme == "" {
		return experiment.Scheme{}, nil
	}
	return experiment.ParseScheme(sc.Scheme)
}

// RunTrial executes one trial of sc. The trial seed is sc.Seed + trial
// (the sweep machinery's trial stride), and the set-up is every trial's
// (experiment.SimPool.Begin) with the failure stream replaced by the
// churn stream: topology, churn, sim — in that order off the root — and
// the spec's relationship mode as the policy. obs, when non-nil, is
// invoked inline as each window closes.
func (r *Runner) RunTrial(ctx context.Context, sc Scenario, trial int, obs WindowObserver) (TrialResult, error) {
	sch, err := sc.scheme()
	if err != nil {
		return TrialResult{}, err
	}
	t, err := r.pool.Begin(ctx, experiment.Scenario{Topology: sc.Topology, Scheme: sch, Seed: sc.Seed + int64(trial)}, "churn")
	if err != nil {
		return TrialResult{}, err
	}
	events, err := Expand(t.Net, sc.Program, t.Stream)
	if err != nil {
		return TrialResult{}, t.End(ctx, err)
	}
	tr, err := play(t.Sim, events, trial, obs)
	if err != nil {
		return TrialResult{}, t.End(ctx, err)
	}
	return tr, t.End(ctx, nil)
}

// play streams events over sim from its installed start and measures one
// window per event.
func play(sim *bgp.Simulator, events []Event, trial int, obs WindowObserver) (TrialResult, error) {
	if err := sim.ConvergeInitial(); err != nil {
		return TrialResult{}, err
	}
	base := sim.Now() + bgp.SettleMargin
	tr := TrialResult{Trial: trial, Start: base, Windows: make([]WindowResult, 0, len(events))}

	record := func(i int) {
		col := sim.Collector()
		w := WindowResult{
			Index:         i,
			Event:         events[i].Kind.String(),
			At:            col.WindowStart() - base,
			Delay:         col.ConvergenceDelay(),
			Announcements: col.Announcements,
			Withdrawals:   col.Withdrawals,
			Processed:     col.Processed,
			Discarded:     col.Discarded,
			RouteChanges:  col.RouteChanges(),
		}
		tr.Windows = append(tr.Windows, w)
		if obs != nil {
			obs(trial, w, col.PerNodeSent())
		}
	}

	// Schedule the whole stream up front at absolute times. Scheduling
	// order at equal timestamps is execution order, so each instant runs
	// capture(previous window) -> open window -> perturb. Failure kinds
	// open (and normalize) their window inside Schedule*Failure; recovery
	// kinds get an explicit OpenMeasurementWindow first.
	for i, ev := range events {
		at := base + ev.At
		if i > 0 {
			prev := i - 1
			sim.ScheduleControl(at, func() { record(prev) })
		}
		switch ev.Kind {
		case EventNodeDown:
			sim.ScheduleFailure(at, ev.Nodes)
		case EventLinkDown:
			sim.ScheduleLinkFailure(at, ev.Links)
		case EventNodeUp:
			sim.ScheduleControl(at, func() { sim.OpenMeasurementWindow(at) })
			sim.ScheduleRecovery(at, ev.Nodes)
		case EventLinkUp:
			sim.ScheduleControl(at, func() { sim.OpenMeasurementWindow(at) })
			sim.ScheduleLinkRecovery(at, ev.Links)
		}
	}
	if err := sim.Run(); err != nil {
		return TrialResult{}, err
	}
	if len(events) > 0 {
		record(len(events) - 1)
	}
	return tr, nil
}

// Run validates sc, then executes trials replicated trials of it over a
// bounded pool of workers goroutines (<= 1 is serial;
// experiment.ForEachIndex) and assembles them in trial order. The
// assembled result is identical for every worker count; only the
// observer's interleaving varies. Observer calls are serialized. A
// failed or cancelled trial stops further trials from being set up, and
// Run returns the error of the lowest failing trial.
func Run(ctx context.Context, sc Scenario, trials, workers int, obs WindowObserver) (RunResult, error) {
	if trials < 1 {
		return RunResult{}, fmt.Errorf("churn: trials=%d", trials)
	}
	if err := sc.Validate(); err != nil {
		return RunResult{}, err
	}
	runner := NewRunner()
	if obs != nil {
		var mu sync.Mutex
		inner := obs
		obs = func(trial int, w WindowResult, per []int) {
			mu.Lock()
			defer mu.Unlock()
			inner(trial, w, per)
		}
	}
	results := make([]TrialResult, trials)
	if i, err := experiment.ForEachIndex(trials, workers, func(i int) error {
		var err error
		results[i], err = runner.RunTrial(ctx, sc, i, obs)
		return err
	}); err != nil {
		return RunResult{}, fmt.Errorf("trial %d: %w", i, err)
	}
	return RunResult{Scenario: sc, Trials: results}, nil
}

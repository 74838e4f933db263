package churn

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"bgpsim/internal/bgp"
	"bgpsim/internal/des"
	"bgpsim/internal/experiment"
	"bgpsim/internal/topology"
)

// Scenario is one fully specified churn run: a topology, a scheme named
// in the wire syntax (experiment.ParseScheme; empty keeps the default
// parameters), and the program to stream over it. Every field is
// JSON-encodable, which is what lets the distributed coordinator carry
// churn submissions across the wire and reconstruct byte-identical
// trials on any worker.
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
// send count (live per-router convergence state for the query API). With
// multiple trial workers, observers run serialized but trial-interleaved;
// the deterministic artifact is the assembled RunResult, not the
// observation order.
type WindowObserver func(trial int, w WindowResult, perNodeSent []int)

// Runner executes churn trials, retaining a simulator pool across calls
// so every trial after the first skips construction, whatever world it
// runs on — the same warm-fleet behaviour as experiment.CellRunner. Safe
// for concurrent use.
type Runner struct {
	pool *experiment.SimPool
}

// NewRunner returns a runner with an empty simulator pool.
func NewRunner() *Runner {
	return &Runner{pool: experiment.NewSimPool()}
}

// RunTrial executes one trial of sc. The trial seed is sc.Seed + trial
// (the sweep machinery's trial stride), and the RNG stream derivation
// is runScenario's (experiment.Slot.Derive) with the failure stream
// replaced by the churn stream: topology, churn, sim — in that order off
// the root. obs, when non-nil, is invoked inline as each window closes.
func (r *Runner) RunTrial(ctx context.Context, sc Scenario, trial int, obs WindowObserver) (TrialResult, error) {
	seed := sc.Seed + int64(trial)
	slot := r.pool.Take()
	_, progRNG, simSeed := slot.Derive(seed, "churn")

	params := bgp.DefaultParams()
	params.Seed = simSeed
	if sc.Topology.PrefixesPerOrigin > 0 {
		params.PrefixesPerAS = sc.Topology.PrefixesPerOrigin
	}
	if sc.Scheme != "" {
		sch, err := experiment.ParseScheme(sc.Scheme)
		if err != nil {
			return TrialResult{}, err
		}
		sch.Apply(&params)
	}

	net, err := experiment.BuildTopologyCached(sc.Topology, seed)
	if err != nil {
		return TrialResult{}, fmt.Errorf("build topology: %w", err)
	}
	events, err := Expand(net, sc.Program, progRNG)
	if err != nil {
		return TrialResult{}, err
	}

	sim, err := slot.Bind(net, params)
	if err != nil {
		return TrialResult{}, fmt.Errorf("build simulator: %w", err)
	}
	if done := ctx.Done(); done != nil {
		sim.SetCancel(func() bool { return ctx.Err() != nil })
	}
	if err := sim.ConvergeInitial(); err != nil {
		return TrialResult{}, trialErr(ctx, err)
	}
	base := sim.Now() + bgp.SettleMargin
	tr := TrialResult{Trial: trial, Start: base, Windows: make([]WindowResult, 0, len(events))}

	record := func(i int) {
		ws := sim.CaptureWindow()
		w := WindowResult{
			Index:         i,
			Event:         events[i].Kind.String(),
			At:            ws.Start - base,
			Delay:         ws.Delay,
			Announcements: ws.Announcements,
			Withdrawals:   ws.Withdrawals,
			Processed:     ws.Processed,
			Discarded:     ws.Discarded,
			RouteChanges:  ws.RouteChanges,
		}
		tr.Windows = append(tr.Windows, w)
		if obs != nil {
			obs(trial, w, sim.Collector().PerNodeSent())
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
		// Aborted slots stay unpooled (their simulator's state is mid-run).
		return TrialResult{}, trialErr(ctx, err)
	}
	if len(events) > 0 {
		record(len(events) - 1)
	}
	sim.SetCancel(nil)
	r.pool.Put(slot)
	return tr, nil
}

// trialErr surfaces cancellation as the context's own error.
func trialErr(ctx context.Context, err error) error {
	if errors.Is(err, des.ErrCanceled) && ctx.Err() != nil {
		return ctx.Err()
	}
	return err
}

// Run executes trials replicated trials of sc over a bounded pool of
// workers goroutines (<= 1 is serial) and assembles them in trial order.
// The assembled result is identical for every worker count; only the
// observer's interleaving varies. Observer calls are serialized.
func Run(ctx context.Context, sc Scenario, trials, workers int, obs WindowObserver) (RunResult, error) {
	if trials < 1 {
		return RunResult{}, fmt.Errorf("churn: trials=%d", trials)
	}
	if workers < 1 {
		workers = 1
	}
	if workers > trials {
		workers = trials
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
	errs := make([]error, trials)
	if workers == 1 {
		for i := 0; i < trials; i++ {
			results[i], errs[i] = runner.RunTrial(ctx, sc, i, obs)
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					results[i], errs[i] = runner.RunTrial(ctx, sc, i, obs)
				}
			}()
		}
		for i := 0; i < trials; i++ {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil {
			return RunResult{}, fmt.Errorf("trial %d: %w", i, err)
		}
	}
	return RunResult{Scenario: sc, Trials: results}, nil
}

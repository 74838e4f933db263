package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// errSkipped marks trials that were never started because an earlier
// trial had already failed. It never escapes this package: callers see
// only the first real error, reported in index order.
var errSkipped = errors.New("experiment: trial skipped after earlier failure")

// normalizeWorkers resolves a worker-count knob: <= 0 selects GOMAXPROCS.
func normalizeWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// ForEachIndex runs fn(i) for every i in [0, n) over a bounded pool of
// worker goroutines and returns when all calls have finished. Indices are
// dispatched in increasing order; with workers <= 1 the calls run inline
// on the calling goroutine, fully serially. Sweeps, trial batches and
// churn runs all fan out through it. fn is responsible for
// synchronizing any shared state beyond its own index.
func ForEachIndex(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// runTrialsInto executes trials first … first+n−1 of sc (seeds
// trialSeed(Seed, first+i), n = len(results)) over a pool of workers
// goroutines, storing each trial's result and error at its index i. It is
// the single implementation behind RunTrials, RunTrialsParallel and
// CellRunner.RunTrials, so the serial, parallel, and distributed paths
// cannot drift. Once a
// trial fails (or ctx is canceled), trials that have not yet started are
// skipped (marked errSkipped); in-flight ones finish or abort on the
// engine's cancellation probe. pool, when non-nil, recycles simulators
// across trials.
func runTrialsInto(ctx context.Context, sc Scenario, first int, results []Result, errs []error, workers int, failed *atomic.Bool, pool *SimPool) {
	ForEachIndex(len(results), workers, func(i int) {
		if failed.Load() {
			errs[i] = errSkipped
			return
		}
		if err := ctx.Err(); err != nil {
			errs[i] = err
			failed.Store(true)
			return
		}
		trial := sc
		trial.Seed = trialSeed(sc.Seed, first+i)
		results[i], errs[i] = runScenario(ctx, trial, pool)
		if errs[i] != nil {
			failed.Store(true)
		}
	})
}

// firstTrialError returns the first real (non-skip) error in index order.
func firstTrialError(errs []error) (int, error) {
	for i, err := range errs {
		if err != nil && !errors.Is(err, errSkipped) {
			return i, err
		}
	}
	return -1, nil
}

// runTrials is the shared body of RunTrials and RunTrialsParallel.
func runTrials(ctx context.Context, sc Scenario, n, workers int) (Stats, error) {
	if n < 1 {
		return Stats{}, fmt.Errorf("experiment: trials=%d", n)
	}
	results := make([]Result, n)
	errs := make([]error, n)
	var failed atomic.Bool
	runTrialsInto(ctx, sc, 0, results, errs, workers, &failed, NewSimPool())
	if i, err := firstTrialError(errs); err != nil {
		return Stats{}, fmt.Errorf("trial %d: %w", i, err)
	}
	return aggregate(results), nil
}

// RunTrialsParallel is RunTrials with the independent trials fanned out
// over a bounded worker pool. Results are byte-identical to the serial
// version for every worker count (each trial is a self-contained
// simulation keyed by its own seed, and aggregation consumes them in
// index order); only wall-clock time changes. workers <= 0 selects
// GOMAXPROCS.
func RunTrialsParallel(sc Scenario, n, workers int) (Stats, error) {
	return runTrials(context.Background(), sc, n, normalizeWorkers(workers))
}

// RunTrialsContext is RunTrialsParallel with cancellation: when ctx is
// canceled, unstarted trials are skipped and in-flight simulations abort
// at the engine's next cancellation probe, and the context error is
// returned. Results of a run that completes are unaffected by ctx.
func RunTrialsContext(ctx context.Context, sc Scenario, n, workers int) (Stats, error) {
	return runTrials(ctx, sc, n, normalizeWorkers(workers))
}

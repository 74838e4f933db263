package experiment

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// normalizeWorkers resolves a worker-count knob: <= 0 selects GOMAXPROCS.
func normalizeWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// ForEachIndex runs fn(i) for every i in [0, n) over a bounded pool of
// workers goroutines, the calling one among them, and returns when all
// calls have finished; with workers <= 1 the calls run inline, fully
// serially, and allocate nothing. Indices start in increasing order, and
// once a call has failed no further index starts (calls already running
// finish). It returns the lowest failing index and its error, or -1 and
// nil, so the error reported is the first in index order for every
// worker count. Every batch of trials — a sweep, a lease, a trial batch,
// a churn run — fans out through it. fn synchronizes any shared state
// beyond its own index.
func ForEachIndex(n, workers int, fn func(i int) error) (int, error) {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return i, err
			}
		}
		return -1, nil
	}
	var (
		mu     sync.Mutex // guards next, failed, first
		next   int
		failed = -1
		first  error
	)
	work := func() {
		for {
			mu.Lock()
			i := next
			if failed >= 0 || i >= n {
				mu.Unlock()
				return
			}
			next++
			mu.Unlock()
			if err := fn(i); err != nil {
				mu.Lock()
				if failed < 0 || i < failed {
					failed, first = i, err
				}
				mu.Unlock()
			}
		}
	}
	var wg sync.WaitGroup
	for range min(workers, n) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return failed, first
}

// runGrid is the one trial loop: every batch of trials in the package —
// a sweep, a lease of one cell's trials, a plain trial batch — runs
// through it. It runs trials first … first+n−1 of every cell, trial t of
// cell c seeded trialSeed(cells[c].Seed, first+t), over workers
// goroutines at trial granularity (one slow cell cannot serialize the
// pool), drawing simulators from pool. The results are flat and
// cell-major, index c·n+t, whatever the worker count or completion
// order. progress, when set, is called as each cell's last trial
// completes: calls are serialized and done strictly increases, out of
// len(cells). On failure it returns the lowest failing index and its
// error (ForEachIndex).
func runGrid(ctx context.Context, cells []Scenario, first, n, workers int, pool *SimPool, progress func(done, total int)) ([]Result, int, error) {
	results := make([]Result, len(cells)*n)
	var (
		mu     sync.Mutex // guards landed, done and the progress calls
		done   int
		landed = make([]int, len(cells))
	)
	j, err := ForEachIndex(len(results), workers, func(j int) error {
		c := j / n
		trial := cells[c]
		trial.Seed = trialSeed(trial.Seed, first+j%n)
		var err error
		if results[j], err = runScenario(ctx, trial, pool); err != nil {
			return err
		}
		if progress == nil {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		landed[c]++
		if landed[c] == n {
			done++
			progress(done, len(cells))
		}
		return nil
	})
	return results, j, err
}

// RunTrials executes the scenario n times with seeds Seed, Seed+1, …
// (fresh topology, failure draw and simulation randomness per trial)
// over workers goroutines (<= 0 selects GOMAXPROCS, 1 is serial) and
// aggregates them in trial order, so the statistics are identical for
// every worker count. When ctx is cancelled, unstarted trials never
// start, in-flight simulations abort at the engine's next cancellation
// probe, and the context error is returned; ctx never alters the results
// of a run that completes.
func RunTrials(ctx context.Context, sc Scenario, n, workers int) (Stats, error) {
	if n < 1 {
		return Stats{}, fmt.Errorf("experiment: trials=%d", n)
	}
	results, j, err := runGrid(ctx, []Scenario{sc}, 0, n, normalizeWorkers(workers), NewSimPool(), nil)
	if err != nil {
		return Stats{}, fmt.Errorf("trial %d: %w", j, err)
	}
	return aggregate(results), nil
}

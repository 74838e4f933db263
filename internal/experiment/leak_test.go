package experiment

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"bgpsim/internal/failure"
	"bgpsim/internal/topology"
)

// These tests pin the two reuse-layer leak fixes: the simulator pool
// must hold no more simulators than trials were ever in flight at once,
// however many worlds a sweep visits, and the topology memo must not let
// failed builds consume cap slots or poison their key.

// distinctWorldsConfig is a Fig 3 shaped grid at toy scale: three failure
// sizes by ten MRAIs, one trial per cell, no two cells on the same world.
func distinctWorldsConfig(workers int) SweepConfig {
	fracs := []float64{0.025, 0.05, 0.1}
	return SweepConfig{
		SeriesNames: []string{"2.5%", "5%", "10%"},
		Xs:          MRAISweepSeconds,
		Trials:      1,
		Metric:      MetricDelay,
		Workers:     workers,
		Cell: func(si int, x float64) Scenario {
			return Scenario{
				Topology: topology.Spec{Kind: topology.KindSkewed7030, N: 30},
				Failure:  failure.Geographic(fracs[si]),
				Scheme:   ConstantMRAI(SecondsToDuration(x)),
				Seed:     47,
			}
		},
	}
}

// TestSimPoolHoldsOneSimulatorPerWorker pins the pool's size: a serial
// sweep over 30 worlds, none visited twice, is served by one simulator
// and leaves exactly that one behind. (Keyed by network, the pool used
// to end such a sweep holding 30 simulators nobody could take again.)
func TestSimPoolHoldsOneSimulatorPerWorker(t *testing.T) {
	cfg := distinctWorldsConfig(1)
	worlds := make(map[*topology.Network]bool)
	for si := range cfg.SeriesNames {
		for xi := range cfg.Xs {
			sc := CellScenario(cfg, si, xi)
			nw, err := BuildTopologyCached(sc.Topology, sc.Seed)
			if err != nil {
				t.Fatal(err)
			}
			worlds[nw] = true
		}
	}
	if len(worlds) != 30 {
		t.Fatalf("the grid has %d distinct worlds, want 30", len(worlds))
	}
	pool := NewSimPool()
	if _, err := pool.Sweep(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if got := len(pool.free); got != 1 {
		t.Errorf("pool holds %d simulators after a serial 30-world sweep, want 1", got)
	}
}

// TestSimPoolNeverTakesBackAnUnfinishedRun pins that only a simulator
// whose run completed returns to the pool: a trial that is cancelled
// mid-run, or fails after taking its simulator, leaves the pool one
// short rather than hand a later trial state from the middle of a run.
func TestSimPoolNeverTakesBackAnUnfinishedRun(t *testing.T) {
	sc := CellScenario(distinctWorldsConfig(1), 0, 0)
	pool := NewSimPool()
	good, err := runScenario(context.Background(), sc, pool)
	if err != nil {
		t.Fatal(err)
	}
	if len(pool.free) != 1 {
		t.Fatalf("pool holds %d simulators after one completed trial, want 1", len(pool.free))
	}

	// A trial whose context is cancelled before it starts takes nothing.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := runScenario(ctx, sc, pool); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled trial: %v, want context.Canceled", err)
	}
	if len(pool.free) != 1 {
		t.Fatalf("pool holds %d simulators after a trial refused at Begin, want 1", len(pool.free))
	}

	// One cancelled mid-run keeps its simulator out of the pool.
	if _, err := runScenario(cancelAfterBegin(), sc, pool); !errors.Is(err, context.Canceled) {
		t.Fatalf("trial cancelled mid-run: %v, want context.Canceled", err)
	}
	if len(pool.free) != 0 {
		t.Errorf("pool holds %d simulators after a cancelled trial took the only one, want 0", len(pool.free))
	}

	if _, err := runScenario(context.Background(), sc, pool); err != nil {
		t.Fatal(err)
	}
	bad := sc
	bad.Failure = failure.Spec{Kind: failure.KindGeographic, Fraction: 2}
	if _, err := runScenario(context.Background(), bad, pool); err == nil {
		t.Fatal("a failure fraction of 2 was accepted")
	}
	if len(pool.free) != 0 {
		t.Errorf("pool holds %d simulators after a failed trial took the only one, want 0", len(pool.free))
	}

	// Neither left anything behind that the next trial can see.
	again, err := runScenario(context.Background(), sc, pool)
	if err != nil {
		t.Fatal(err)
	}
	if again != good {
		t.Errorf("trial after a cancelled and a failed one: %+v, want %+v", again, good)
	}
}

// lateCancel is a live context whose Err reports cancellation from its
// second call on: the first is Begin's check, the next the engine's
// cancellation probe, so a trial run under it is cancelled mid-run.
type lateCancel struct {
	context.Context
	done  chan struct{}
	calls atomic.Int32
}

func cancelAfterBegin() *lateCancel {
	return &lateCancel{Context: context.Background(), done: make(chan struct{})}
}

func (c *lateCancel) Done() <-chan struct{} { return c.done }

func (c *lateCancel) Err() error {
	if c.calls.Add(1) > 1 {
		return context.Canceled
	}
	return nil
}

// TestTopoCacheFailedBuildEvicted pins that a failing Spec.Build does
// not stay cached: the error entry is evicted, so the key can succeed
// later and the failure never consumes one of the topoCacheCap slots.
func TestTopoCacheFailedBuildEvicted(t *testing.T) {
	c := &topoCache{entries: make(map[topoKey]*topoEntry)}
	bad := topology.Spec{Kind: "no-such-family", N: 10}
	// Far more failing keys than the cap: if error entries counted, the
	// cache would be irreversibly full before the good build below.
	for seed := int64(0); seed < topoCacheCap+8; seed++ {
		if _, err := c.build(bad, seed, topoStreamSeed(seed)); err == nil {
			t.Fatal("bad spec built successfully")
		}
	}
	if got := c.len(); got != 0 {
		t.Fatalf("cache holds %d entries after failed builds, want 0", got)
	}
	good := topology.Spec{Kind: topology.KindSkewed7030, N: 20}
	nw, err := c.build(good, 1, topoStreamSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if nw == nil || c.len() != 1 {
		t.Fatalf("good build after failures: net=%v entries=%d, want cached", nw, c.len())
	}
	// The same failing key must be retryable (not poisoned by a cached
	// error) — with this spec it deterministically fails again, but each
	// attempt re-runs the build rather than replaying a stale error.
	if _, err := c.build(bad, 1, topoStreamSeed(1)); err == nil {
		t.Fatal("bad spec built successfully on retry")
	}
	if got := c.len(); got != 1 {
		t.Errorf("cache holds %d entries, want only the good build", got)
	}
}

// TestTopoCacheFailedBuildConcurrent hammers one failing key and one
// good key from many goroutines under -race: concurrent losers of the
// once gate share the error, eviction races stay correct, and the cap
// accounting ends with exactly the successful build cached.
func TestTopoCacheFailedBuildConcurrent(t *testing.T) {
	c := &topoCache{entries: make(map[topoKey]*topoEntry)}
	bad := topology.Spec{Kind: "no-such-family", N: 10}
	good := topology.Spec{Kind: topology.KindSkewed7030, N: 20}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := c.build(bad, 7, topoStreamSeed(7)); err == nil {
					t.Error("bad spec built successfully")
					return
				}
				if _, err := c.build(good, 7, topoStreamSeed(7)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := c.len(); got != 1 {
		t.Errorf("cache holds %d entries after concurrent churn, want 1 (the good build)", got)
	}
}

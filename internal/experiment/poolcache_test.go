package experiment

import (
	"context"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"bgpsim/internal/des"
	"bgpsim/internal/failure"
	"bgpsim/internal/topology"
)

// poolTestConfig is a small paired sweep: two schemes over the same
// worlds, so a pooled simulator is sometimes handed the network it
// already runs on (both series receive the same memoized *Network per
// (x, trial)) and takes Rebind's pointer-equal shortcut.
func poolTestConfig(workers int) SweepConfig {
	return SweepConfig{
		SeriesNames:           []string{"MRAI=0.5s", "batch"},
		Xs:                    []float64{2.5, 10},
		Trials:                2,
		Metric:                MetricDelay,
		SameWorldAcrossSeries: true,
		Workers:               workers,
		Cell: func(si int, x float64) Scenario {
			scheme := ConstantMRAI(500 * time.Millisecond)
			if si == 1 {
				scheme = Batching(500 * time.Millisecond)
			}
			return Scenario{
				Topology: topology.Spec{Kind: topology.KindSkewed7030, N: 30},
				Failure:  failure.Geographic(x / 100),
				Scheme:   scheme,
				Seed:     31,
			}
		},
	}
}

// poolTestConfigs is the two ways a sweep's trials meet the simulator
// pool: paired series, whose trials share worlds, and the shape of the
// paper's own figures, where no two trials do and every pooled simulator
// is rebound to a network it has never seen.
func poolTestConfigs(workers int) map[string]SweepConfig {
	return map[string]SweepConfig{
		"paired":          poolTestConfig(workers),
		"distinct-worlds": distinctWorldsConfig(workers),
	}
}

// TestSweepPooledMatchesFreshRuns pins that the sweep's simulator pool
// and topology memo change nothing observable: every cell of a pooled
// sweep, serial or on four workers, must equal the aggregate of plain
// Run calls (which never reuse a simulator) over the same derived seeds.
func TestSweepPooledMatchesFreshRuns(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for name, cfg := range poolTestConfigs(workers) {
			fig, err := NewSimPool().Sweep(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			for si := range cfg.SeriesNames {
				for xi, x := range cfg.Xs {
					sc := cfg.Cell(si, x)
					base := cellSeed(sc.Seed, si, xi, cfg.SameWorldAcrossSeries)
					var fresh []Result
					for i := 0; i < cfg.Trials; i++ {
						sc.Seed = trialSeed(base, i)
						r, err := Run(sc)
						if err != nil {
							t.Fatal(err)
						}
						fresh = append(fresh, r)
					}
					want := cfg.Metric.value(aggregate(fresh))
					got := fig.Series[si].Points[xi].Y
					if got != want {
						t.Errorf("%s, %d workers, series %d x=%v: pooled sweep %v != fresh runs %v", name, workers, si, x, got, want)
					}
				}
			}
		}
	}
}

// TestSweepWorkerCountInvariant pins that the pooled sweep is still
// byte-identical across worker counts: simulators change hands in a
// different interleaving under the parallel schedule, and none of it may
// show.
func TestSweepWorkerCountInvariant(t *testing.T) {
	parallel := poolTestConfigs(4)
	for name, cfg := range poolTestConfigs(1) {
		serial, err := NewSimPool().Sweep(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		par, err := NewSimPool().Sweep(context.Background(), parallel[name])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("%s: worker count changed the figure:\nserial:   %+v\nparallel: %+v", name, serial, par)
		}
	}
}

// TestSweepAllocatesItsLargestTrialOnce pins what rebinding buys: a
// serial sweep over ten worlds, no two trials on the same one, allocates
// at most 1.3 × what its largest trial does on a simulator of its own.
// Built per trial, as a pool keyed by network would have it, the sweep
// costs the sum of its trials, several times that. What is left above
// 1.0 is each trial's seed streams and the buffers whose mark is still
// per owner (a router id's FIFO ring and per-slot columns). The pool
// outlives the sweep: run again on it, the sweep allocates at most a
// tenth of that largest trial.
func TestSweepAllocatesItsLargestTrialOnce(t *testing.T) {
	// One row of the distinct-worlds grid, the 10% failures, on worlds
	// large enough that a trial's buffers outweigh what every trial
	// allocates whatever it runs on (seed streams, results).
	grid := distinctWorldsConfig(1)
	cfg := grid
	cfg.SeriesNames = grid.SeriesNames[2:]
	cfg.Cell = func(_ int, x float64) Scenario {
		sc := grid.Cell(2, x)
		sc.Topology.N = 60
		return sc
	}
	var ms runtime.MemStats
	allocated := func(f func()) uint64 {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		f()
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc - before
	}
	var largest, sum uint64
	for xi := range cfg.Xs {
		sc := CellScenario(cfg, 0, xi)
		run := func() {
			if _, err := Run(sc); err != nil {
				t.Fatal(err)
			}
		}
		run() // builds and memoizes the world
		n := allocated(run)
		largest, sum = max(largest, n), sum+n
	}
	pool := NewSimPool()
	sweep := func() {
		if _, err := pool.Sweep(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
	}
	cold := allocated(sweep)
	warm := allocated(sweep)
	t.Logf("largest trial %d B, all %d trials %d B, sweep %d B, again on its pool %d B", largest, len(cfg.Xs), sum, cold, warm)
	if 10*cold > 13*largest {
		t.Errorf("sweep allocated %d B, more than 1.3 x its largest trial's %d B (sum of fresh trials: %d B)", cold, largest, sum)
	}
	if 10*warm > largest {
		t.Errorf("a second sweep on the same pool allocated %d B, more than 0.1 x its largest trial's %d B", warm, largest)
	}
}

// TestRunCellMatchesSweep pins that a lease is a slice of the sweep: one
// pool running every cell as a lease of its first trial and one of the
// rest (a dist worker's pool across its leases) returns the results the
// sweep assembles its figure from. Cells and trials outside the grid are
// refused.
func TestRunCellMatchesSweep(t *testing.T) {
	ctx := context.Background()
	for name, cfg := range poolTestConfigs(1) {
		want, err := NewSimPool().Sweep(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pool := NewSimPool()
		var perCell [][]Result
		for si := range cfg.SeriesNames {
			for xi := range cfg.Xs {
				cell, err := pool.RunCell(ctx, cfg, si, xi, 0, 1)
				if err != nil {
					t.Fatal(err)
				}
				if cfg.Trials > 1 {
					rest, err := pool.RunCell(ctx, cfg, si, xi, 1, cfg.Trials-1)
					if err != nil {
						t.Fatal(err)
					}
					cell = append(cell, rest...)
				}
				perCell = append(perCell, cell)
			}
		}
		got, err := AssembleFigure(cfg, perCell)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: leases assembled\n%+v\nsweep\n%+v", name, got, want)
		}
		flat := slices.Concat(perCell...)
		if got, err := AssembleTrials(cfg, flat); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: trials assembled (%v)\n%+v\nsweep\n%+v", name, err, got, want)
		}
		if _, err := AssembleTrials(cfg, flat[1:]); err == nil {
			t.Errorf("%s: AssembleTrials accepted one trial result short", name)
		}
	}
	cfg := poolTestConfig(1)
	for _, c := range [][4]int{{2, 0, 0, 1}, {0, -1, 0, 1}, {0, 0, 1, 2}, {0, 0, 0, 0}} {
		if _, err := NewSimPool().RunCell(ctx, cfg, c[0], c[1], c[2], c[3]); err == nil {
			t.Errorf("RunCell(%v) outside the 2x2 grid of 2 trials accepted", c)
		}
	}
}

// TestConcurrentSweepsShareTopologyCache runs overlapping sweeps on the
// same scenarios from multiple goroutines. Under -race this exercises
// the once-guarded topology memo and the mutex-guarded simulator pools
// against concurrent first-builds of identical keys.
func TestConcurrentSweepsShareTopologyCache(t *testing.T) {
	var wg sync.WaitGroup
	figs := make([]Figure, 3)
	errs := make([]error, 3)
	for i := range figs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			figs[i], errs[i] = NewSimPool().Sweep(context.Background(), poolTestConfig(2))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("sweep %d: %v", i, err)
		}
		if !reflect.DeepEqual(figs[i], figs[0]) {
			t.Errorf("concurrent sweep %d diverged:\n%+v\nvs\n%+v", i, figs[i], figs[0])
		}
	}
}

// TestBuildTopologyCachedReturnsSharedInstance pins the memo contract:
// identical (spec, seed) yields the identical *Network, and different
// seeds yield different instances.
func TestBuildTopologyCachedReturnsSharedInstance(t *testing.T) {
	spec := topology.Spec{Kind: topology.KindSkewed7030, N: 20}
	a, err := BuildTopologyCached(spec, 12345)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildTopologyCached(spec, 12345)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same (spec, seed) returned distinct networks")
	}
	c, err := BuildTopologyCached(spec, 12346)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different seeds returned the same network")
	}
	// The memoized build must equal an uncached one.
	fresh, err := spec.Build(des.NewRNG(topoStreamSeed(12345)))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumNodes() != fresh.NumNodes() || a.NumLinks() != fresh.NumLinks() {
		t.Errorf("cached build differs from direct build: %d/%d nodes, %d/%d links",
			a.NumNodes(), fresh.NumNodes(), a.NumLinks(), fresh.NumLinks())
	}
}

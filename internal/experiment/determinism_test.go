package experiment

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"bgpsim/internal/failure"
	"bgpsim/internal/topology"
)

// smallSweepConfig is a real (if tiny) sweep grid: 2 series × 2 x × 2
// trials of 30-node simulations, enough for worker pools to interleave.
func smallSweepConfig(workers int) SweepConfig {
	mrais := []time.Duration{500 * time.Millisecond, 2250 * time.Millisecond}
	return SweepConfig{
		SeriesNames:           []string{"MRAI=0.5s", "MRAI=2.25s"},
		Xs:                    []float64{5, 10},
		Trials:                2,
		Metric:                MetricDelay,
		SameWorldAcrossSeries: true,
		Workers:               workers,
		Cell: func(si int, x float64) Scenario {
			return Scenario{
				Topology: topology.Spec{Kind: topology.KindSkewed7030, N: 30},
				Failure:  failure.Geographic(x / 100),
				Scheme:   ConstantMRAI(mrais[si]),
				Seed:     100,
			}
		},
	}
}

// TestSweepDeterministicAcrossWorkerCounts is the golden guarantee: the
// rendered figure must be byte-identical whatever the worker count, so a
// serial run and a 16-worker run produce the same results/ files.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	serial, err := Sweep(context.Background(), smallSweepConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	golden := serial.Render()
	if !strings.Contains(golden, "MRAI=0.5s") {
		t.Fatalf("implausible render:\n%s", golden)
	}
	for _, workers := range []int{2, 16} {
		fig, err := Sweep(context.Background(), smallSweepConfig(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := fig.Render(); got != golden {
			t.Errorf("workers=%d render diverged from serial:\n--- serial ---\n%s--- workers=%d ---\n%s",
				workers, golden, workers, got)
		}
	}
}

// TestSweepProgressSerializedMonotonic checks the Progress contract under
// a parallel sweep: calls are serialized (the unguarded counter below is
// a -race tripwire) and done counts increase strictly by one.
func TestSweepProgressSerializedMonotonic(t *testing.T) {
	cfg := smallSweepConfig(8)
	last := 0 // written from Progress with no locking: races fail -race
	wantTotal := len(cfg.SeriesNames) * len(cfg.Xs)
	cfg.Progress = func(done, total int) {
		if total != wantTotal {
			t.Errorf("total = %d, want %d", total, wantTotal)
		}
		if done != last+1 {
			t.Errorf("done jumped %d -> %d; want strictly +1", last, done)
		}
		last = done
	}
	if _, err := Sweep(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if last != wantTotal {
		t.Errorf("final done = %d, want %d", last, wantTotal)
	}
}

// TestRunTrialsParallelConcurrentSweeps exercises independent parallel
// sweeps racing each other (the bgpfig -fig all case) under -race.
func TestRunTrialsParallelConcurrentSweeps(t *testing.T) {
	var wg sync.WaitGroup
	out := make([]string, 3)
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fig, err := Sweep(context.Background(), smallSweepConfig(4))
			if err != nil {
				t.Error(err)
				return
			}
			out[i] = fig.Render()
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(out); i++ {
		if out[i] != out[0] {
			t.Errorf("concurrent sweep %d diverged", i)
		}
	}
}

// TestSeedDerivationPinned pins the seed derivation with golden values.
// These constants must never change: every recorded figure in results/
// (and so the scorecard EXPERIMENTS.md carries) was produced by exactly
// this mapping.
func TestSeedDerivationPinned(t *testing.T) {
	cases := []struct {
		base      int64
		si, xi    int
		sameWorld bool
		want      int64
	}{
		{base: 1, si: 0, xi: 0, sameWorld: true, want: 1},
		{base: 1, si: 3, xi: 0, sameWorld: true, want: 1},          // same world: series ignored
		{base: 1, si: 0, xi: 4, sameWorld: true, want: 4001},       // x stride 1000
		{base: 1, si: 2, xi: 4, sameWorld: false, want: 2_004_001}, // series stride 1e6
		{base: 100, si: 1, xi: 1, sameWorld: false, want: 1_001_100},
	}
	for _, c := range cases {
		if got := cellSeed(c.base, c.si, c.xi, c.sameWorld); got != c.want {
			t.Errorf("cellSeed(%d, %d, %d, %v) = %d, want %d",
				c.base, c.si, c.xi, c.sameWorld, got, c.want)
		}
	}
	if got := trialSeed(4001, 7); got != 4008 {
		t.Errorf("trialSeed(4001, 7) = %d, want 4008 (trials step +1)", got)
	}
}

// TestSweepRejectsOverlappingSeedGrids: grids too large for the seed
// strides must be rejected instead of silently correlating trials across
// cells (the pre-fix behavior with Trials >= 1000).
func TestSweepRejectsOverlappingSeedGrids(t *testing.T) {
	cfg := smallSweepConfig(1)
	cfg.Trials = seedStrideX + 1
	if _, err := Sweep(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Errorf("Trials=%d accepted (err=%v); RNG streams would overlap", cfg.Trials, err)
	}

	cfg = smallSweepConfig(1)
	cfg.Xs = make([]float64, seedStrideSeries/seedStrideX+1)
	for i := range cfg.Xs {
		cfg.Xs[i] = float64(i)
	}
	if _, err := Sweep(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Errorf("%d sweep points accepted (err=%v); RNG streams would overlap", len(cfg.Xs), err)
	}

	// The boundary itself is legal: Trials == seedStrideX exactly fills
	// a cell's seed range. A fail-fast bogus topology keeps the test from
	// actually running 1000 trials; the error must not be the overlap one.
	cfg = smallSweepConfig(1)
	cfg.Trials = seedStrideX
	cfg.Xs = []float64{5}
	cfg.Cell = func(si int, x float64) Scenario {
		return Scenario{Topology: topology.Spec{Kind: "bogus", N: 10}}
	}
	if _, err := Sweep(context.Background(), cfg); err == nil || strings.Contains(err.Error(), "overlap") {
		t.Errorf("boundary Trials=%d rejected as overlap: %v", seedStrideX, err)
	}
}

// TestSweepParallelErrorPropagates: a failing cell must surface its error
// with series/x context even when other cells run concurrently.
func TestSweepParallelErrorPropagates(t *testing.T) {
	cfg := smallSweepConfig(4)
	good := cfg.Cell
	cfg.Cell = func(si int, x float64) Scenario {
		sc := good(si, x)
		if si == 1 && x == 10 {
			sc.Topology.Kind = "bogus"
		}
		return sc
	}
	_, err := Sweep(context.Background(), cfg)
	if err == nil {
		t.Fatal("bad cell swallowed")
	}
	if !strings.Contains(err.Error(), "MRAI=2.25s") || !strings.Contains(err.Error(), "x=10") {
		t.Errorf("error lacks series/x context: %v", err)
	}
}

package experiment

import (
	"context"
	"fmt"
)

// This file is the cell-granularity face of the sweep machinery, the
// contract distributed execution (internal/dist) is built on: a sweep
// grid decomposes into (series, x) cells, each cell's scenario and seeds
// derive from grid indices alone (CellScenario), a cell's trials can be
// executed anywhere (SimPool.RunCell), and the per-trial results
// merge back into a figure in fixed order (AssembleFigure). Sweep itself
// is the degenerate case: every cell runs in-process. A sweep and a
// lease run their trials through the same loop (runGrid) and differ only
// in the cells and trials they pass it.

// CellScenario materializes the scenario of sweep cell (si, xi) exactly
// as Sweep does: the Cell callback builds the base scenario and the
// cell's seed is derived from the grid indices (see cellSeed). cfg must
// be normalized (NormalizeSweep) and the indices in range. Like Sweep,
// it invokes cfg.Cell on the calling goroutine only.
func CellScenario(cfg SweepConfig, si, xi int) Scenario {
	sc := cfg.Cell(si, cfg.Xs[xi])
	sc.Seed = cellSeed(sc.Seed, si, xi, cfg.SameWorldAcrossSeries)
	return sc
}

// RunCell runs trials first … first+n−1 of cell (si, xi) of the grid
// and returns their results in trial order — the unit of work a
// distributed lease covers. A worker keeps one pool across its leases, so
// every trial after its first skips simulator construction, whatever
// world it runs on. The trials fan out over cfg.Workers goroutines
// (<= 0 selects GOMAXPROCS, 1 is serial) and the results are identical
// for every worker count. The trial seeds, simulation code path and
// result layout are shared with Sweep, so the results are byte-for-byte
// the ones a local sweep computes for those trials. Like Sweep, it
// invokes cfg.Cell on the calling goroutine only.
func (p *SimPool) RunCell(ctx context.Context, cfg SweepConfig, si, xi, first, n int) ([]Result, error) {
	cfg, err := NormalizeSweep(cfg)
	if err != nil {
		return nil, err
	}
	if si < 0 || si >= len(cfg.SeriesNames) || xi < 0 || xi >= len(cfg.Xs) {
		return nil, fmt.Errorf("experiment: cell (%d, %d) outside %dx%d grid", si, xi, len(cfg.SeriesNames), len(cfg.Xs))
	}
	if first < 0 || n < 1 || first+n > cfg.Trials {
		return nil, fmt.Errorf("experiment: %d trials from trial %d outside %d trials", n, first, cfg.Trials)
	}
	results, j, err := runGrid(ctx, []Scenario{CellScenario(cfg, si, xi)}, first, n, normalizeWorkers(cfg.Workers), p, nil)
	if err != nil {
		return nil, cellError(cfg, si*len(cfg.Xs)+xi, first+j, err)
	}
	return results, nil
}

// AssembleFigure merges a completed grid's per-cell trial results into
// the figure, consuming them in (series, x, trial) order. perCell is
// indexed cell-major (si·len(Xs)+xi) and each entry must hold exactly
// Trials results in trial order. This is the same merge Sweep performs
// on its own results, so a distributed sweep that feeds verbatim trial
// results through here renders a byte-identical figure.
func AssembleFigure(cfg SweepConfig, perCell [][]Result) (Figure, error) {
	cfg, err := NormalizeSweep(cfg)
	if err != nil {
		return Figure{}, err
	}
	total := len(cfg.SeriesNames) * len(cfg.Xs)
	if len(perCell) != total {
		return Figure{}, fmt.Errorf("experiment: %d cell results for a %d-cell grid", len(perCell), total)
	}
	flat := make([]Result, 0, total*cfg.Trials)
	for c, cell := range perCell {
		if len(cell) != cfg.Trials {
			return Figure{}, fmt.Errorf("experiment: cell %d has %d trial results, want %d", c, len(cell), cfg.Trials)
		}
		flat = append(flat, cell...)
	}
	return assembleFigure(cfg, flat), nil
}

// AssembleTrials is AssembleFigure for results already in one slice in
// (series, x, trial) order: Trials results per cell, cell-major.
func AssembleTrials(cfg SweepConfig, results []Result) (Figure, error) {
	cfg, err := NormalizeSweep(cfg)
	if err != nil {
		return Figure{}, err
	}
	if want := len(cfg.SeriesNames) * len(cfg.Xs) * cfg.Trials; len(results) != want {
		return Figure{}, fmt.Errorf("experiment: %d trial results for a grid of %d", len(results), want)
	}
	return assembleFigure(cfg, results), nil
}

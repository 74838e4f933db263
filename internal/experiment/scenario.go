// Package experiment turns the substrates (topology, bgp, failure) into
// repeatable experiments: a Scenario bundles one topology + failure +
// scheme, trials replicate it over independent seeds, and sweeps produce
// the figure series the paper reports.
package experiment

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"bgpsim/internal/bgp"
	"bgpsim/internal/des"
	"bgpsim/internal/failure"
	"bgpsim/internal/mrai"
	"bgpsim/internal/topology"
)

// Scheme is a named convergence-improvement scheme: a mutation of the
// base BGP parameters (MRAI policy, queue discipline, ablation flags).
type Scheme struct {
	Name  string
	Apply func(*bgp.Params)
}

// ConstantMRAI is plain BGP with a fixed per-peer MRAI.
func ConstantMRAI(d time.Duration) Scheme {
	return Scheme{
		Name:  fmt.Sprintf("MRAI=%s", formatSeconds(d)),
		Apply: func(p *bgp.Params) { p.MRAI = mrai.Constant(d) },
	}
}

// DegreeMRAI is the Section 4.2 scheme: low-degree routers use low,
// high-degree routers (degree >= threshold) use high.
func DegreeMRAI(threshold int, low, high time.Duration) Scheme {
	return Scheme{
		Name: fmt.Sprintf("deg<%d:%s,>=:%s", threshold, formatSeconds(low), formatSeconds(high)),
		Apply: func(p *bgp.Params) {
			p.MRAI = mrai.DegreeDependent(threshold, low, high)
		},
	}
}

// DynamicMRAI is the Section 4.3 unfinished-work ladder.
func DynamicMRAI(levels []time.Duration, upTh, downTh time.Duration) Scheme {
	return Scheme{
		Name:  "dynamic",
		Apply: func(p *bgp.Params) { p.MRAI = mrai.Dynamic(levels, upTh, downTh) },
	}
}

// PaperDynamicMRAI is the exact Fig 7 dynamic configuration.
func PaperDynamicMRAI() Scheme {
	s := DynamicMRAI(mrai.PaperLevels, mrai.PaperUpTh, mrai.PaperDownTh)
	return s
}

// Batching is the Section 4.4 destination-batched queue with a constant
// MRAI (the paper pairs it with 0.5 s).
func Batching(d time.Duration) Scheme {
	return Scheme{
		Name: fmt.Sprintf("batch,MRAI=%s", formatSeconds(d)),
		Apply: func(p *bgp.Params) {
			p.MRAI = mrai.Constant(d)
			p.Queue = bgp.QueueBatched
		},
	}
}

// BatchingDynamic combines batching with the dynamic MRAI ladder — the
// paper's best configuration.
func BatchingDynamic(levels []time.Duration, upTh, downTh time.Duration) Scheme {
	return Scheme{
		Name: "batch+dynamic",
		Apply: func(p *bgp.Params) {
			p.MRAI = mrai.Dynamic(levels, upTh, downTh)
			p.Queue = bgp.QueueBatched
		},
	}
}

// OracleMRAI is the paper's future-work ideal: at failure time every
// surviving router's MRAI is set from the true failure extent, using the
// optimal constants the paper measured (mrai.PaperOracleTable).
func OracleMRAI() Scheme {
	return Scheme{
		Name: "oracle",
		Apply: func(p *bgp.Params) {
			p.MRAI = mrai.Oracle(500 * time.Millisecond)
			p.OracleMRAI = mrai.PaperOracleTable()
		},
	}
}

// Custom wraps an arbitrary parameter mutation.
func Custom(name string, apply func(*bgp.Params)) Scheme {
	return Scheme{Name: name, Apply: apply}
}

func formatSeconds(d time.Duration) string {
	return fmt.Sprintf("%.4gs", d.Seconds())
}

// Scenario is one fully specified simulation: build the topology, run to
// initial convergence, inject the failure, and measure re-convergence.
type Scenario struct {
	Topology topology.Spec
	Failure  failure.Spec
	Scheme   Scheme
	// Base supplies the non-scheme simulation parameters; zero value
	// means bgp.DefaultParams().
	Base *bgp.Params
	// PolicyRatio, when positive, enables Gao–Rexford routing policies
	// with relationships inferred from node degrees at this ratio
	// (typical: 1.5). Zero keeps the paper's policy-free configuration.
	// Degree inference can leave node pairs without any valley-free path.
	PolicyRatio float64
	// PolicyHierarchical enables Gao–Rexford policies with BFS-hierarchy
	// relationships (full valley-free reachability guaranteed). Takes
	// precedence over PolicyRatio.
	PolicyHierarchical bool
	// Shards is what is left of the removed sharded engine: a simulation
	// is one event loop, and Begin refuses a value above 1. The
	// field exists only until the ROADMAP's "benchmark/-only PR" drops
	// benchmark/replica.go's read of it.
	Shards int
	// WarmStart is what is left of the removed start switch: every trial
	// now starts from the installed snapshot fixpoint, and Begin refuses
	// true. The field exists only until the ROADMAP's
	// "benchmark/-only PR" drops benchmark/replica.go's read of it.
	WarmStart bool
	Seed      int64
}

// Result captures one trial's measurements.
type Result struct {
	Delay time.Duration
	// WindowStart is the absolute simulated time of the failure, the
	// anchor for trace analysis.
	WindowStart   time.Duration
	Messages      int
	Announcements int
	Withdrawals   int
	Processed     int
	Discarded     int
	RouteChanges  int
	FailedNodes   int
	Nodes         int
}

// Run executes the scenario once. Seed controls every random choice, so
// identical scenarios produce identical results. The topology is served
// from the process-wide memo (see topocache.go); repeated runs of the
// same (spec, seed) share one immutable network.
func Run(sc Scenario) (Result, error) {
	return runScenario(context.Background(), sc, nil)
}

// Trial is one trial between Begin and End: its world, its simulator,
// bound to that world and the trial's parameters, and its own stream.
type Trial struct {
	Net    *topology.Network // shared and immutable (the topology memo's)
	Sim    *bgp.Simulator    // the slot's, until End
	Stream *des.RNG          // the trial's own stream, Begin's label; valid until End
	pool   *SimPool
	slot   *Slot
}

// Begin is the one set-up of every trial, scenario and churn alike. It
// refuses a ctx that is already cancelled, returning ctx's error before
// it takes anything, so a cancelled batch sets up no further trial. It
// takes a slot from p and derives its streams (Slot.Derive; label names
// the trial's own stream), takes the world from the topology memo, builds
// the parameters — Base, the simulator seed, the spec's prefixes, the
// scheme, then the policy — binds the slot's simulator and installs ctx's
// cancel probe. The spec's prefix dimension is applied before the scheme,
// so a scheme can still override it. A nil or empty pool constructs the
// slot; results are byte-identical either way. The Trial is a value, so
// a set-up allocates nothing a pooled slot already holds.
func (p *SimPool) Begin(ctx context.Context, sc Scenario, label string) (Trial, error) {
	if sc.Shards > 1 {
		return Trial{}, fmt.Errorf("experiment: Shards = %d: sharded engines were removed; a simulation is one event loop", sc.Shards)
	}
	if sc.WarmStart {
		return Trial{}, fmt.Errorf("experiment: WarmStart was removed; every trial starts from the installed snapshot fixpoint")
	}
	if err := ctx.Err(); err != nil {
		return Trial{}, err
	}
	slot := p.Take()
	topoSeed, stream, simSeed := slot.Derive(sc.Seed, label)
	net, err := sharedTopoCache.build(sc.Topology, sc.Seed, topoSeed)
	if err != nil {
		return Trial{}, fmt.Errorf("build topology: %w", err)
	}
	params := bgp.DefaultParams()
	if sc.Base != nil {
		params = *sc.Base
	}
	params.Seed = simSeed
	if sc.Topology.PrefixesPerOrigin > 0 {
		params.PrefixesPerAS = sc.Topology.PrefixesPerOrigin
	}
	if sc.Scheme.Apply != nil {
		sc.Scheme.Apply(&params)
	}
	rs, err := policySpec(sc).BuildRelationships(net)
	if err != nil {
		return Trial{}, fmt.Errorf("annotate policy: %w", err)
	}
	if rs != nil {
		params.Policy = rs
	}
	sim, err := slot.Bind(net, params)
	if err != nil {
		return Trial{}, fmt.Errorf("build simulator: %w", err)
	}
	if ctx.Done() != nil {
		sim.SetCancel(func() bool { return ctx.Err() != nil })
	}
	return Trial{Net: net, Sim: sim, Stream: stream, pool: p, slot: slot}, nil
}

// policySpec is the scenario's topology spec with its relationship mode
// overridden by the explicit Policy* fields, which take precedence:
// PolicyHierarchical selects the hierarchical mode, a positive
// PolicyRatio inference at that ratio. Spec.BuildRelationships is then
// the one mode→derivation table.
func policySpec(sc Scenario) topology.Spec {
	spec := sc.Topology
	switch {
	case sc.PolicyHierarchical:
		spec.Relationships = topology.RelModeHierarchical
	case sc.PolicyRatio > 0:
		spec.Relationships, spec.RelationshipRatio = topology.RelModeInfer, sc.PolicyRatio
	}
	return spec
}

// End closes the trial: err is the outcome of its own work, returned with
// a cancellation surfaced as ctx's own error. Only a trial whose run
// completed (err == nil) returns its slot to the pool; an aborted
// simulator is mid-run and is left to the GC. The caller reads what it
// needs from Sim before End and touches it no more.
func (t *Trial) End(ctx context.Context, err error) error {
	if err != nil {
		if errors.Is(err, des.ErrCanceled) && ctx.Err() != nil {
			return ctx.Err()
		}
		return err
	}
	t.Sim.SetCancel(nil)
	t.pool.Put(t.slot)
	return nil
}

// runScenario is the single trial implementation behind Run and runGrid
// (Sweep, RunTrials, CellRunner.RunTrials): Begin, the failure draw, the
// storm, End. ctx cancellation aborts the simulation between events via
// the engine's probe; it can never alter the results of a run that
// completes.
func runScenario(ctx context.Context, sc Scenario, pool *SimPool) (Result, error) {
	t, err := pool.Begin(ctx, sc, "failure")
	if err != nil {
		return Result{}, err
	}
	nodes, err := failure.Select(t.Net, sc.Failure, t.Stream)
	if err != nil {
		return Result{}, t.End(ctx, fmt.Errorf("select failure: %w", err))
	}
	delay, err := t.Sim.ConvergeAndFail(nodes)
	if err != nil {
		return Result{}, t.End(ctx, err)
	}
	col := t.Sim.Collector()
	res := Result{
		Delay:         delay,
		WindowStart:   col.WindowStart(),
		Messages:      col.Messages(),
		Announcements: col.Announcements,
		Withdrawals:   col.Withdrawals,
		Processed:     col.Processed,
		Discarded:     col.Discarded,
		RouteChanges:  col.RouteChanges(),
		FailedNodes:   len(nodes),
		Nodes:         t.Net.NumNodes(),
	}
	return res, t.End(ctx, nil)
}

// Stats aggregates replicated trials.
type Stats struct {
	N            int
	MeanDelay    time.Duration
	StdDelay     time.Duration
	MeanMessages float64
	StdMessages  float64
	MeanDiscard  float64
	Results      []Result
}

// Seed-derivation policy. Trial seeds step +1 from the cell's base seed,
// sweep x cells are spaced seedStrideX apart, and series (when worlds are
// not shared) are spaced seedStrideSeries apart. Sweep validates that the
// grid fits inside these strides, so RNG streams can never silently
// overlap across cells. The derivation is pinned by TestSeedDerivationPinned:
// changing it changes every recorded figure in results/.
const (
	seedStrideX      = 1000
	seedStrideSeries = 1_000_000
)

// trialSeed derives the seed of trial i from a cell's base seed.
func trialSeed(base int64, i int) int64 { return base + int64(i) }

// cellSeed derives the base seed of sweep cell (si, xi). With sameWorld
// set, every series shares the per-x seed (paired comparison).
func cellSeed(base int64, si, xi int, sameWorld bool) int64 {
	off := int64(xi) * seedStrideX
	if !sameWorld {
		off += int64(si) * seedStrideSeries
	}
	return base + off
}

func aggregate(results []Result) Stats {
	n := float64(len(results))
	var sumD, sumM, sumDisc float64
	for _, r := range results {
		sumD += r.Delay.Seconds()
		sumM += float64(r.Messages)
		sumDisc += float64(r.Discarded)
	}
	meanD, meanM := sumD/n, sumM/n
	var varD, varM float64
	for _, r := range results {
		dd := r.Delay.Seconds() - meanD
		dm := float64(r.Messages) - meanM
		varD += dd * dd
		varM += dm * dm
	}
	varD /= n
	varM /= n
	return Stats{
		N:            len(results),
		MeanDelay:    time.Duration(meanD * float64(time.Second)),
		StdDelay:     time.Duration(math.Sqrt(varD) * float64(time.Second)),
		MeanMessages: meanM,
		StdMessages:  math.Sqrt(varM),
		MeanDiscard:  sumDisc / n,
		Results:      results,
	}
}

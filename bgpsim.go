// Package bgpsim reproduces "Improving BGP Convergence Delay for
// Large-Scale Failures" (Sahoo, Kant, Mohapatra — DSN 2006): a
// discrete-event BGP-4 simulator with the paper's convergence-improvement
// schemes (constant, degree-dependent, and dynamic MRAI selection, and
// destination-batched update processing), BRITE-style topology
// generation, geographic failure injection, and an experiment harness
// that regenerates every figure in the paper's evaluation.
//
// # Quick start
//
//	result, err := bgpsim.Run(bgpsim.Scenario{
//		Topology: bgpsim.Skewed7030(120),
//		Failure:  bgpsim.GeographicFailure(0.05),
//		Scheme:   bgpsim.DynamicMRAI(),
//		Seed:     1,
//	})
//	fmt.Println(result.Delay, result.Messages)
//
// # Layers
//
// The Scenario/Run layer covers the common case: one topology, one
// failure, one scheme, one measurement. RunTrials replicates over seeds.
// Experiments() exposes the paper's figure reproductions. For full
// control (custom schemes, protocol ablations, direct simulator access)
// use NewSimulator with a Params value.
package bgpsim

import (
	"context"
	"time"

	"bgpsim/internal/bgp"
	"bgpsim/internal/core"
	"bgpsim/internal/des"
	"bgpsim/internal/experiment"
	"bgpsim/internal/failure"
	"bgpsim/internal/mrai"
	"bgpsim/internal/topology"
)

// Re-exported types. Aliases (not definitions) so values flow freely
// between this package and code that composes the lower layers.
type (
	// Network is a generated or loaded router-level topology.
	Network = topology.Network
	// TopologySpec selects and parameterizes a topology family.
	TopologySpec = topology.Spec
	// FailureSpec selects which routers fail.
	FailureSpec = failure.Spec
	// Scenario is one complete experiment: topology + failure + scheme.
	Scenario = experiment.Scenario
	// Result is one trial's measurements.
	Result = experiment.Result
	// Stats aggregates replicated trials.
	Stats = experiment.Stats
	// Figure is a reproduced paper figure (labeled series).
	Figure = experiment.Figure
	// Series is one labeled curve of a Figure.
	Series = experiment.Series
	// Scheme is a named convergence-improvement scheme.
	Scheme = experiment.Scheme
	// Params is the full BGP protocol/simulation parameter set.
	Params = bgp.Params
	// Simulator is the low-level BGP simulation (advanced use).
	Simulator = bgp.Simulator
	// Options scales a paper-figure experiment.
	Options = core.Options
	// Experiment is a runnable paper-figure reproduction.
	Experiment = core.Experiment
	// RNG is a seeded random stream used by generator functions.
	RNG = des.RNG
)

// Topology constructors.

// Skewed7030 is the paper's default 120-node family: 70% of ASes with
// degree 1–3 and 30% with degree 8 (average 3.8).
func Skewed7030(n int) TopologySpec {
	return TopologySpec{Kind: topology.KindSkewed7030, N: n}
}

// Skewed5050 is 50% low-degree / 50% degree 5–6 (average 3.8).
func Skewed5050(n int) TopologySpec {
	return TopologySpec{Kind: topology.KindSkewed5050, N: n}
}

// Skewed8515 is 85% low-degree / 15% degree 14 (average 3.8).
func Skewed8515(n int) TopologySpec {
	return TopologySpec{Kind: topology.KindSkewed8515, N: n}
}

// InternetLike draws a heavy-tailed AS-level degree distribution shaped
// like measured Internet connectivity (mean ≈ 3.4, capped at 40).
func InternetLike(n int) TopologySpec {
	return TopologySpec{Kind: topology.KindInternetLike, N: n}
}

// Realistic is the paper's Fig 13 family: numAS ASes with heavy-tailed
// router counts, full-mesh IBGP inside each AS, and an Internet-like
// inter-AS degree distribution.
func Realistic(numAS int) TopologySpec {
	return TopologySpec{Kind: topology.KindRealistic, N: numAS}
}

// MultiPrefix returns spec with each AS originating k destination
// prefixes instead of one. The generated graph is unchanged; the
// routing-table dimension of every simulation run on the spec scales by
// k (dest = AS·k + i). k <= 1 returns the spec unmodified.
func MultiPrefix(spec TopologySpec, k int) TopologySpec {
	if k > 1 {
		spec.PrefixesPerOrigin = k
	}
	return spec
}

// BuildTopology materializes a spec with the given seed.
func BuildTopology(spec TopologySpec, seed int64) (*Network, error) {
	return spec.Build(des.NewRNG(seed))
}

// Failure constructors.

// GeographicFailure fails the given fraction of routers nearest the grid
// center — the paper's contiguous-area failure model.
func GeographicFailure(fraction float64) FailureSpec {
	return failure.Geographic(fraction)
}

// RandomFailure fails count routers chosen uniformly at random.
func RandomFailure(count int) FailureSpec {
	return FailureSpec{Kind: failure.KindRandom, Count: count}
}

// Scheme constructors.

// ConstantMRAI is plain BGP with a fixed per-peer MRAI (the Internet
// deploys 30s; the paper sweeps 0.25–4s).
func ConstantMRAI(d time.Duration) Scheme { return experiment.ConstantMRAI(d) }

// ParseScheme translates the compact scheme syntax shared by the CLI and
// wire-encoded churn descriptors: mrai=<seconds> | degree=<low>,<high> |
// dynamic | batch[=<seconds>] | batch+dynamic | oracle.
func ParseScheme(s string) (Scheme, error) { return experiment.ParseScheme(s) }

// DegreeDependentMRAI uses low at routers with degree below threshold
// and high at the rest (Section 4.2).
func DegreeDependentMRAI(threshold int, low, high time.Duration) Scheme {
	return experiment.DegreeMRAI(threshold, low, high)
}

// DynamicMRAI is the paper's load-adaptive ladder with its published
// parameters: levels {0.5, 1.25, 2.25}s, upTh 0.65s, downTh 0.05s
// (Section 4.3, Fig 7).
func DynamicMRAI() Scheme { return experiment.PaperDynamicMRAI() }

// CustomDynamicMRAI is the ladder with caller-chosen levels/thresholds.
// It fails when they cannot form a ladder: no levels, levels not
// increasing, or downTh above upTh.
func CustomDynamicMRAI(levels []time.Duration, upTh, downTh time.Duration) (Scheme, error) {
	l := mrai.Ladder{Levels: levels, UpTh: upTh, DownTh: downTh, Signal: mrai.SignalWork}
	if err := l.Validate(); err != nil {
		return Scheme{}, err
	}
	return experiment.DynamicMRAI(levels, upTh, downTh), nil
}

// BatchedProcessing is the paper's destination-batched update queue with
// a constant MRAI (Section 4.4; the paper pairs it with 0.5s).
func BatchedProcessing(d time.Duration) Scheme { return experiment.Batching(d) }

// BatchedDynamic combines batching with the dynamic ladder — the paper's
// best configuration.
func BatchedDynamic() Scheme {
	return experiment.BatchingDynamic(mrai.PaperLevels, mrai.PaperUpTh, mrai.PaperDownTh)
}

// OracleMRAI models the paper's future-work ideal: at failure time every
// surviving router's MRAI is set from the true failure extent using the
// optimal constants the paper measured. An upper bound for adaptive
// schemes, impossible to deploy (nobody knows the extent that fast).
func OracleMRAI() Scheme { return experiment.OracleMRAI() }

// CustomScheme wraps an arbitrary Params mutation as a Scheme.
func CustomScheme(name string, apply func(*Params)) Scheme {
	return experiment.Custom(name, apply)
}

// Scenario presets.

// LargeScale500 is the 500-AS stress scenario behind the
// ConvergeLargeScale benchmark and the scale table in EXPERIMENTS.md: an
// Internet-like heavy-tailed topology at 500 ASes, a 10% geographic
// failure, and the paper's dynamic MRAI ladder. At this size the
// highest-degree routers peer with dozens of neighbors, which is what
// the incremental decision process and the calendar event queue are
// sized for.
func LargeScale500() Scenario {
	return Scenario{
		Topology: InternetLike(500),
		Failure:  GeographicFailure(0.10),
		// The paper's best configuration (batching + dynamic ladder)
		// keeps the message volume — and the benchmark's wall clock —
		// bounded at this scale.
		Scheme: BatchedDynamic(),
	}
}

// LargeScaleMultiPrefix is the PR-6 stress scenario: the 500-AS
// Internet-like world of LargeScale500 with every AS originating 1000
// prefixes — a 500,000-destination routing table, the scale the paper's
// discussion section argues real deployments face. The compact route
// encoding (interned path refs, lazily materialized per-peer columns)
// is what keeps this within a few GB; see EXPERIMENTS.md for the
// memory accounting. Expect hours of wall clock at full scale — the
// ConvergeMultiPrefix benchmark measures a reduced cut of the same
// shape.
func LargeScaleMultiPrefix() Scenario {
	sc := LargeScale500()
	sc.Topology = MultiPrefix(sc.Topology, 1000)
	return sc
}

// Routing policies (Gao–Rexford).

// Relationships records per-link business relationships for policy
// routing; install via Params.Policy or Scenario.PolicyHierarchical.
type Relationships = topology.Relationships

// InferRelationships assigns provider/customer/peer roles from node
// degrees (the bigger endpoint is the provider when degrees differ by
// more than ratio). Degree inference can leave some node pairs without
// any valley-free path.
func InferRelationships(net *Network, ratio float64) (*Relationships, error) {
	return topology.InferRelationships(net, ratio)
}

// HierarchicalRelationships assigns roles from a BFS hierarchy rooted at
// the highest-degree node, guaranteeing every pair a valley-free path.
func HierarchicalRelationships(net *Network) (*Relationships, error) {
	return topology.HierarchicalRelationships(net)
}

// Running experiments.

// Run executes one scenario: build the topology, converge, inject the
// failure, re-converge, measure.
func Run(sc Scenario) (Result, error) { return experiment.Run(sc) }

// RunTrials replicates a scenario n times over derived seeds, fanned out
// over workers goroutines (<= 0 selects GOMAXPROCS, 1 is serial);
// results are byte-identical for every worker count. When ctx is
// canceled, queued trials never start, in-flight simulations abort at
// the next event-loop check, and ctx's error is returned.
func RunTrials(ctx context.Context, sc Scenario, n, workers int) (Stats, error) {
	return experiment.RunTrials(ctx, sc, n, workers)
}

// NewSimulator builds the low-level simulator for a prebuilt network
// (advanced use: custom flows, direct route-table inspection).
func NewSimulator(net *Network, p Params) (*Simulator, error) { return bgp.New(net, p) }

// DefaultParams returns the paper's protocol parameters: per-peer
// jittered MRAI, U(1,30)ms processing, 25ms links, immediate failure
// detection, FIFO queue, 30s constant MRAI.
func DefaultParams() Params { return bgp.DefaultParams() }

// Paper figures.

// Experiments returns the full registry: fig1–fig13 plus ablations.
func Experiments() []Experiment { return core.Registry() }

// LookupExperiment finds an experiment by ID ("fig7" or "7").
func LookupExperiment(id string) (Experiment, error) { return core.Lookup(id) }

// PaperOptions is the paper-scale configuration (120 nodes, 3 trials).
func PaperOptions() Options { return core.DefaultOptions() }

// QuickOptions is a reduced scale for tests and exploration.
func QuickOptions() Options { return core.QuickOptions() }

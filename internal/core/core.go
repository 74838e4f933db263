// Package core packages the paper's contribution: the named schemes
// (constant / degree-dependent / dynamic MRAI, batched update processing)
// and a registry of experiment definitions that regenerate every figure
// in the paper's evaluation (Figs 1–13) plus ablation experiments for the
// design choices DESIGN.md calls out.
package core

import (
	"context"
	"fmt"
	"math"

	"bgpsim/internal/experiment"
	"bgpsim/internal/topology"
)

// Options scales an experiment. The zero value is not valid; start from
// DefaultOptions (paper scale) or QuickOptions (CI scale). The scale
// fields are also the wire form a distributed sweep addresses its grid
// by (internal/dist's SweepDesc): they carry JSON names, and the
// process-local fields after them, which cannot change a figure, do not
// cross the wire.
type Options struct {
	// Nodes is the AS count for the skewed topologies (paper: 120) and
	// the AS count for Fig 13's realistic topologies.
	Nodes int `json:"nodes"`
	// Trials is the replication count per data point.
	Trials int `json:"trials"`
	// Seed is the base seed; every cell derives from it.
	Seed int64 `json:"seed"`
	// FailureSizes is the failure-size axis in percent of routers.
	FailureSizes []float64 `json:"failure_sizes"`
	// MRAIs is the MRAI axis in seconds for the V-curve figures.
	MRAIs []float64 `json:"mrais"`
	// RealisticMaxASSize caps routers per AS for Fig 13 (paper: 100;
	// smaller values keep IBGP meshes manageable).
	RealisticMaxASSize int `json:"realistic_max_as_size"`
	// PrefixesPerOrigin is the number of destination prefixes each AS
	// originates (0 = the paper's single prefix). Values above 1 scale
	// every figure's routing-table dimension; the value 1 is explicit
	// single-prefix and must regenerate the recorded figures
	// byte-identically (TestFigureBytesUnchangedByExplicitSinglePrefix
	// pins this). omitempty keeps the wire form of single-prefix runs,
	// and so every recorded checkpoint key, as they were before the
	// field existed.
	PrefixesPerOrigin int `json:"prefixes_per_origin,omitempty"`
	// Workers bounds the worker pool each sweep fans its
	// (series × x × trial) grid over: <= 0 selects GOMAXPROCS, 1 is
	// fully serial. Figures are byte-identical for every worker count.
	Workers int `json:"-"`
	// Progress, when set, is called once per completed cell of each
	// sweep, with done cells out of the grid's cells, whether the grid
	// runs locally or through a Sweeper. Calls are serialized with
	// strictly increasing done counts (see experiment.SweepConfig.Progress).
	Progress func(done, total int) `json:"-"`
	// Context, when non-nil, cancels in-flight sweeps: unstarted trials
	// are skipped, running simulations abort at the engine's next
	// cancellation probe, and the experiment returns the context error.
	// nil behaves as context.Background.
	Context context.Context `json:"-"`
	// Sweeper, when non-nil, replaces the local sweep executor: the
	// experiment's grid (Experiment.Grid) is handed to it instead of the
	// experiment's simulator pool. This is the hook distributed execution
	// (internal/dist) plugs a coordinator into; figures must come back
	// byte-identical to the local executor's.
	Sweeper experiment.Sweeper `json:"-"`
}

// DefaultOptions reproduces the paper's configuration.
func DefaultOptions() Options {
	return Options{
		Nodes:              120,
		Trials:             3,
		Seed:               1,
		FailureSizes:       append([]float64(nil), experiment.FailureSizesPct...),
		MRAIs:              append([]float64(nil), experiment.MRAISweepSeconds...),
		RealisticMaxASSize: 100,
	}
}

// QuickOptions is a reduced configuration for tests and benchmarks:
// half-size networks, single trial, coarser axes. The trends survive;
// only the variance suffers.
func QuickOptions() Options {
	return Options{
		Nodes:              60,
		Trials:             1,
		Seed:               1,
		FailureSizes:       []float64{2.5, 10, 20},
		MRAIs:              []float64{0.25, 0.75, 1.5, 3.0},
		RealisticMaxASSize: 6,
	}
}

// normalize fills zero fields from defaults.
func (o Options) normalize() Options {
	def := DefaultOptions()
	if o.Nodes == 0 {
		o.Nodes = def.Nodes
	}
	if o.Trials == 0 {
		o.Trials = def.Trials
	}
	if o.Seed == 0 {
		o.Seed = def.Seed
	}
	if len(o.FailureSizes) == 0 {
		o.FailureSizes = def.FailureSizes
	}
	if len(o.MRAIs) == 0 {
		o.MRAIs = def.MRAIs
	}
	if o.RealisticMaxASSize == 0 {
		o.RealisticMaxASSize = def.RealisticMaxASSize
	}
	return o
}

// ctx resolves the cancellation context (nil = background).
func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// topo returns the spec of a topology family at the option scale; the
// realistic family (Fig 13) also caps routers per AS.
func (o Options) topo(kind topology.Kind) topology.Spec {
	spec := topology.Spec{Kind: kind, N: o.Nodes, PrefixesPerOrigin: o.prefixes()}
	if kind == topology.KindRealistic {
		spec.MaxASSize = o.RealisticMaxASSize
	}
	return spec
}

// prefixes resolves the prefix dimension, normalizing the explicit
// single-prefix request (1) to the zero default so the spec — and with
// it the topology-memo key and every recorded figure — is bit-for-bit
// the same as a run that never mentioned prefixes.
func (o Options) prefixes() int {
	if o.PrefixesPerOrigin <= 1 {
		return 0
	}
	return o.PrefixesPerOrigin
}

// Experiment reproduces one paper figure (or one ablation study): a
// (series × x) grid and the labels its figure prints. Every experiment
// is an entry of the registry; none carries code of its own.
type Experiment struct {
	// ID is "fig1".."fig13" for paper figures, "ablation-*" for extras.
	ID string
	// FigureID and Title head the figure ("Fig 3", "Variation in
	// convergence delay with MRAI").
	FigureID, Title string
	grid            grid
	pool            *experiment.SimPool // its table's (Registry), its own (Lookup)
}

// XLabel is the x-axis label of e's figure.
func (e Experiment) XLabel() string { return e.grid.xLabel }

// Grid is the sweep e runs at scale o: o normalized, both axes checked
// finite, and Trials, Workers and Progress filled from o. Run sweeps
// exactly this config, and a distributed worker rebuilds it from the
// same entry and options.
//
// Both axes are checked, the one the grid does not sweep too (Fig 3
// draws its series from FailureSizes): a NaN or infinite value would
// otherwise run locally and fail only remotely, where JSON cannot carry
// it to a worker.
func (e Experiment) Grid(o Options) (experiment.SweepConfig, error) {
	o = o.normalize()
	for _, axis := range []struct {
		name string
		xs   []float64
	}{{"FailureSizes", o.FailureSizes}, {"MRAIs", o.MRAIs}} {
		for _, x := range axis.xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return experiment.SweepConfig{}, fmt.Errorf("core: Options.%s holds %v, need finite values", axis.name, x)
			}
		}
	}
	cfg := e.grid.build(o)
	cfg.Trials, cfg.Workers, cfg.Progress = o.Trials, o.Workers, o.Progress
	return cfg, nil
}

// Run regenerates e's figure at scale o: Grid's config swept on e's
// simulator pool, or handed to Options.Sweeper when that is set, then
// labelled.
func (e Experiment) Run(o Options) (experiment.Figure, error) {
	cfg, err := e.Grid(o)
	if err != nil {
		return experiment.Figure{}, err
	}
	sweep := o.Sweeper
	if sweep == nil {
		sweep = func(c experiment.SweepConfig) (experiment.Figure, error) { return e.pool.Sweep(o.ctx(), c) }
	}
	fig, err := sweep(cfg)
	if err != nil {
		return experiment.Figure{}, err
	}
	fig.ID, fig.Title, fig.XLabel = e.FigureID, e.Title, e.grid.xLabel
	return fig, nil
}

// Registry returns every experiment, paper figures first in numeric
// order, then ablations by ID. The entries share one simulator pool, so
// bgpfig -fig all grows its simulators once, not once per figure.
func Registry() []Experiment {
	all, pool := append(append([]Experiment(nil), figures...), ablations...), experiment.NewSimPool()
	for i := range all {
		all[i].pool = pool
	}
	return all
}

// Lookup finds an experiment by ID ("fig7", "7", "ablation-batch-discard").
func Lookup(id string) (Experiment, error) {
	for _, e := range Registry() {
		if e.ID == id || e.ID == "fig"+id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("core: unknown experiment %q", id)
}

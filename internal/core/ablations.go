package core

import (
	"time"

	"bgpsim/internal/bgp"
	"bgpsim/internal/experiment"
	"bgpsim/internal/mrai"
	"bgpsim/internal/topology"
)

// ablations are the extra experiments probing the design choices
// DESIGN.md calls out, by ID. They are not paper figures but use the
// same grids and scale knobs.
var ablations = []Experiment{
	{ID: "ablation-batch-discard", FigureID: "Ablation B", Title: "Batch staleness discard (MRAI=0.5s)",
		grid: bySize(experiment.MetricDelay, topology.KindSkewed7030,
			named("batch+discard", batch05),
			tweak("batch only", batch05, func(p *bgp.Params) { p.BatchDiscardStale = false }),
			named("fifo", const05),
		)},
	{ID: "ablation-damping", FigureID: "Ablation R", Title: "Route-flap damping (MRAI=0.5s)",
		grid: bySize(experiment.MetricDelay, topology.KindSkewed7030,
			named("no damping", const05),
			tweak("damping", const05, func(p *bgp.Params) { p.Damping = bgp.DefaultDamping() }),
			named("batch (no damping)", batch05),
		)},
	{ID: "ablation-deshpande-sikdar", FigureID: "Ablation D", Title: "Deshpande–Sikdar schemes, message cost (MRAI=2.25s)",
		grid: bySize(experiment.MetricMessages, topology.KindSkewed7030,
			named("plain", const225),
			tweak("cancel-on-change", const225, func(p *bgp.Params) { p.CancelOnChange = true }),
			tweak("flap-gate(3)", const225, func(p *bgp.Params) { p.FlapGate = 3 }),
		)},
	{ID: "ablation-detection-delay", FigureID: "Ablation F", Title: "Failure detection delay (MRAI=0.5s)",
		grid: bySize(experiment.MetricDelay, topology.KindSkewed7030,
			tweak("detect=0", const05, func(p *bgp.Params) { p.DetectDelay = 0 }),
			tweak("detect=1s", const05, func(p *bgp.Params) { p.DetectDelay = time.Second }),
			tweak("detect=5s", const05, func(p *bgp.Params) { p.DetectDelay = 5 * time.Second }),
		)},
	{ID: "ablation-dynamic-signal", FigureID: "Ablation S", Title: "Dynamic MRAI overload signal",
		grid: bySize(experiment.MetricDelay, topology.KindSkewed7030,
			named("work", experiment.PaperDynamicMRAI()),
			experiment.Custom("utilization", func(p *bgp.Params) { p.MRAI = mrai.DynamicUtilization(mrai.PaperLevels, 0.85, 0.20) }),
			experiment.Custom("msg rate", func(p *bgp.Params) { p.MRAI = mrai.DynamicMsgRate(mrai.PaperLevels, 40, 4) }),
		)},
	{ID: "ablation-oracle-mrai", FigureID: "Ablation O", Title: "Oracle failure-extent-aware MRAI",
		grid: bySize(experiment.MetricDelay, topology.KindSkewed7030,
			experiment.OracleMRAI(), named("dynamic", experiment.PaperDynamicMRAI()), const05, const225)},
	{ID: "ablation-per-dest-mrai", FigureID: "Ablation P", Title: "MRAI timer granularity (MRAI=2.25s)",
		grid: bySize(experiment.MetricDelay, topology.KindSkewed7030,
			named("per-peer", const225),
			tweak("per-destination", const225, func(p *bgp.Params) { p.PerDestinationMRAI = true }),
		)},
	{ID: "ablation-policy", FigureID: "Ablation G", Title: "Routing policies (MRAI=0.5s)",
		grid: gaoRexford(bySize(experiment.MetricDelay, topology.KindSkewed7030,
			named("no policy", const05), named("Gao-Rexford", const05)), 1)},
	{ID: "ablation-prefix-scaling", FigureID: "Ablation T", Title: "Prefix-table scaling (MRAI=0.5s)",
		grid: bySize(experiment.MetricDelay, topology.KindSkewed7030,
			tweak("1 prefix/AS", const05, func(p *bgp.Params) { p.PrefixesPerAS = 1 }),
			tweak("4 prefixes/AS", const05, func(p *bgp.Params) { p.PrefixesPerAS = 4 }),
			tweak("4 prefixes/AS + batch", batch05, func(p *bgp.Params) { p.PrefixesPerAS = 4 }),
		)},
	{ID: "ablation-queue-discipline", FigureID: "Ablation Q", Title: "Queue discipline (MRAI=0.5s)",
		grid: bySize(experiment.MetricDelay, topology.KindSkewed7030,
			named("fifo", const05),
			tweak("router batch", const05, func(p *bgp.Params) { p.Queue = bgp.QueueRouterBatch }),
			named("dest batch", batch05),
		)},
	{ID: "ablation-superfluous", FigureID: "Ablation N", Title: "Superfluous-update elimination (MRAI=0.5s)",
		grid: bySize(experiment.MetricDelay, topology.KindSkewed7030,
			named("batch", batch05),
			tweak("batch+noop-skip", batch05, func(p *bgp.Params) { p.SkipNoopUpdates = true }),
			named("fifo", const05),
		)},
	{ID: "ablation-withdrawal-mrai", FigureID: "Ablation W", Title: "Withdrawal rate limiting (MRAI=2.25s)",
		grid: bySize(experiment.MetricDelay, topology.KindSkewed7030,
			named("withdrawals immediate", const225),
			tweak("withdrawals rate-limited", const225, func(p *bgp.Params) { p.RateLimitWithdrawals = true }),
		)},
}

// tweak is base with one more parameter change, under a new name.
func tweak(name string, base experiment.Scheme, change func(*bgp.Params)) experiment.Scheme {
	return experiment.Custom(name, func(p *bgp.Params) {
		base.Apply(p)
		change(p)
	})
}

// gaoRexford derives Gao–Rexford relationships for series si of g.
func gaoRexford(g grid, si int) grid {
	build := g.build
	g.build = func(o Options) experiment.SweepConfig {
		cfg := build(o)
		cell := cfg.Cell
		cfg.Cell = func(i int, x float64) experiment.Scenario {
			sc := cell(i, x)
			sc.PolicyHierarchical = i == si
			return sc
		}
		return cfg
	}
	return g
}

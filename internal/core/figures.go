package core

import (
	"time"

	"bgpsim/internal/experiment"
	"bgpsim/internal/failure"
	"bgpsim/internal/mrai"
	"bgpsim/internal/topology"
)

// grid is an experiment's sweep: the label of its x axis and a builder
// of its series and cells at a normalized scale (Experiment.Grid fills
// the rest). The by-size and by-MRAI helpers below build every grid.
type grid struct {
	xLabel string
	build  func(o Options) experiment.SweepConfig
}

// bySize is a failure-size grid: x is the failure size in percent of
// routers (Options.FailureSizes), one series per scheme on one topology
// family, every series facing the same worlds.
func bySize(metric experiment.Metric, kind topology.Kind, schemes ...experiment.Scheme) grid {
	return grid{xLabel: "failure size (% of routers)", build: func(o Options) experiment.SweepConfig {
		names := make([]string, len(schemes))
		for i, s := range schemes {
			names[i] = s.Name
		}
		topo := o.topo(kind)
		return experiment.SweepConfig{
			SeriesNames:           names,
			Xs:                    o.FailureSizes,
			Metric:                metric,
			SameWorldAcrossSeries: true,
			Cell: func(si int, x float64) experiment.Scenario {
				return experiment.Scenario{
					Topology: topo,
					Failure:  failure.Geographic(x / 100),
					Scheme:   schemes[si],
					Seed:     o.Seed,
				}
			},
		}
	}}
}

// mraiVariant is one series of an MRAI sweep: a topology family and a
// failure size, the swept constant MRAI optionally batched.
type mraiVariant struct {
	name    string
	kind    topology.Kind
	frac    float64
	batched bool
}

// byMRAI is a V-curve grid: x is a constant MRAI in seconds
// (Options.MRAIs), one series per variant. Series differ in topology or
// failure anyway, so they do not share worlds.
func byMRAI(variants ...mraiVariant) grid {
	return grid{xLabel: "MRAI (s)", build: func(o Options) experiment.SweepConfig {
		names := make([]string, len(variants))
		for i, v := range variants {
			names[i] = v.name
		}
		return experiment.SweepConfig{
			SeriesNames: names,
			Xs:          o.MRAIs,
			Metric:      experiment.MetricDelay,
			Cell: func(si int, x float64) experiment.Scenario {
				v := variants[si]
				scheme := experiment.ConstantMRAI(experiment.SecondsToDuration(x))
				if v.batched {
					scheme = experiment.Batching(experiment.SecondsToDuration(x))
				}
				return experiment.Scenario{
					Topology: o.topo(v.kind),
					Failure:  failure.Geographic(v.frac),
					Scheme:   scheme,
					Seed:     o.Seed,
				}
			},
		}
	}}
}

// named overrides a scheme's display name.
func named(name string, s experiment.Scheme) experiment.Scheme {
	s.Name = name
	return s
}

// degreeThreshold separates the low class (degree 1–3) from the high
// class in the skewed topologies; the repair step can bump a low node to
// 4, so the cut sits at 5.
const degreeThreshold = 5

// The constant MRAIs the paper compares throughout (Figs 1, 2, 6, 7, 10,
// 11), and the schemes built on them.
var (
	mrai05, mrai225 = 500 * time.Millisecond, 2250 * time.Millisecond

	const05  = experiment.ConstantMRAI(mrai05)
	const125 = experiment.ConstantMRAI(1250 * time.Millisecond)
	const225 = experiment.ConstantMRAI(mrai225)
	batch05  = experiment.Batching(mrai05)
)

// upTh and downTh are the scheme families Figs 8 and 9 sweep.
func upTh(up time.Duration) experiment.Scheme {
	return named("upTh="+up.String(), experiment.DynamicMRAI(mrai.PaperLevels, up, 0))
}

func downTh(down time.Duration) experiment.Scheme {
	return named("downTh="+down.String(), experiment.DynamicMRAI(mrai.PaperLevels, mrai.PaperUpTh, down))
}

// figures are the paper's evaluation, Figs 1–13.
var figures = []Experiment{
	{ID: "fig1", FigureID: "Fig 1", Title: "Convergence delay for different sized failures",
		grid: bySize(experiment.MetricDelay, topology.KindSkewed7030, const05, const125, const225)},
	{ID: "fig2", FigureID: "Fig 2", Title: "Number of generated messages for different MRAI values",
		grid: bySize(experiment.MetricMessages, topology.KindSkewed7030, const05, const125, const225)},
	{ID: "fig3", FigureID: "Fig 3", Title: "Variation in convergence delay with MRAI",
		grid: byMRAI(
			mraiVariant{name: "1% failure", kind: topology.KindSkewed7030, frac: 0.01},
			mraiVariant{name: "5% failure", kind: topology.KindSkewed7030, frac: 0.05},
			mraiVariant{name: "10% failure", kind: topology.KindSkewed7030, frac: 0.10},
		)},
	{ID: "fig4", FigureID: "Fig 4", Title: "Convergence delay for different topologies",
		grid: byMRAI(
			mraiVariant{name: "50-50", kind: topology.KindSkewed5050, frac: 0.05},
			mraiVariant{name: "70-30", kind: topology.KindSkewed7030, frac: 0.05},
			mraiVariant{name: "85-15", kind: topology.KindSkewed8515, frac: 0.05},
		)},
	{ID: "fig5", FigureID: "Fig 5", Title: "Effect of average degree on convergence delay",
		grid: byMRAI(
			mraiVariant{name: "avg degree 3.8", kind: topology.KindSkewed5050, frac: 0.05},
			mraiVariant{name: "avg degree 7.6", kind: topology.KindSkewed5050Dense, frac: 0.05},
		)},
	{ID: "fig6", FigureID: "Fig 6", Title: "Effect of degree dependent MRAI",
		grid: bySize(experiment.MetricDelay, topology.KindSkewed7030,
			named("low 0.5, high 2.25", experiment.DegreeMRAI(degreeThreshold, mrai05, mrai225)),
			named("low 2.25, high 0.5", experiment.DegreeMRAI(degreeThreshold, mrai225, mrai05)),
			const05, const225,
		)},
	{ID: "fig7", FigureID: "Fig 7", Title: "Effect of dynamic MRAI",
		grid: bySize(experiment.MetricDelay, topology.KindSkewed7030,
			experiment.PaperDynamicMRAI(), const05, const125, const225)},
	{ID: "fig8", FigureID: "Fig 8", Title: "Effect of upTh on convergence delay",
		grid: bySize(experiment.MetricDelay, topology.KindSkewed7030,
			upTh(50*time.Millisecond), upTh(200*time.Millisecond), upTh(650*time.Millisecond), upTh(1250*time.Millisecond))},
	{ID: "fig9", FigureID: "Fig 9", Title: "Effect of downTh on convergence delay",
		grid: bySize(experiment.MetricDelay, topology.KindSkewed7030,
			downTh(0), downTh(50*time.Millisecond), downTh(200*time.Millisecond), downTh(450*time.Millisecond))},
	{ID: "fig10", FigureID: "Fig 10", Title: "Performance of batching scheme",
		grid: bySize(experiment.MetricDelay, topology.KindSkewed7030,
			batch05, experiment.PaperDynamicMRAI(),
			named("batch+dynamic", experiment.BatchingDynamic(mrai.PaperLevels, mrai.PaperUpTh, mrai.PaperDownTh)),
			const05, const225,
		)},
	{ID: "fig11", FigureID: "Fig 11", Title: "Number of messages generated by the batching scheme",
		grid: bySize(experiment.MetricMessages, topology.KindSkewed7030, batch05, const05, const225)},
	{ID: "fig12", FigureID: "Fig 12", Title: "Effect of batching with different MRAIs",
		grid: byMRAI(
			mraiVariant{name: "batching", kind: topology.KindSkewed7030, frac: 0.05, batched: true},
			mraiVariant{name: "no batching", kind: topology.KindSkewed7030, frac: 0.05},
		)},
	{ID: "fig13", FigureID: "Fig 13", Title: "Convergence delay of realistic topologies",
		grid: bySize(experiment.MetricDelay, topology.KindRealistic,
			batch05,
			named("dynamic", experiment.DynamicMRAI(
				[]time.Duration{mrai05, 1500 * time.Millisecond, 3500 * time.Millisecond}, mrai.PaperUpTh, mrai.PaperDownTh)),
			const05, experiment.ConstantMRAI(3500*time.Millisecond),
		)},
}

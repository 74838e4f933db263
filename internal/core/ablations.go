package core

import (
	"time"

	"bgpsim/internal/bgp"
	"bgpsim/internal/experiment"
	"bgpsim/internal/failure"
	"bgpsim/internal/mrai"
	"bgpsim/internal/topology"
)

// Ablations returns the extra experiments probing the design choices
// DESIGN.md calls out. They are not paper figures but use the same
// machinery and scale knobs.
func Ablations() []Experiment {
	return []Experiment{
		ablationWithdrawalMRAI(),
		ablationBatchDiscard(),
		ablationDynamicSignal(),
		ablationPerDestMRAI(),
		ablationQueueDiscipline(),
		ablationDeshpandeSikdar(),
		ablationDetectionDelay(),
		ablationOracle(),
		ablationSuperfluous(),
		ablationDamping(),
		ablationPolicy(),
		ablationPrefixScaling(),
	}
}

func ablationPrefixScaling() Experiment {
	return Experiment{
		ID:    "ablation-prefix-scaling",
		Title: "Table size scaling (prefixes per AS)",
		What: "more prefixes per AS multiply the update-processing load, so " +
			"overload (and the benefit of batching) onsets at smaller failures — " +
			"the paper's argument for why ~200k Internet destinations keep the " +
			"schemes relevant as routers get faster",
		Run: func(o Options) (experiment.Figure, error) {
			o = o.normalize()
			d := 500 * time.Millisecond
			mk := func(name string, k int, batch bool) experiment.Scheme {
				return named(name, experiment.Custom("", func(p *bgp.Params) {
					p.MRAI = mrai.Constant(d)
					p.PrefixesPerAS = k
					if batch {
						p.Queue = bgp.QueueBatched
					}
				}))
			}
			schemes := []experiment.Scheme{
				mk("1 prefix/AS", 1, false),
				mk("4 prefixes/AS", 4, false),
				mk("4 prefixes/AS + batch", 4, true),
			}
			fig, err := sweepBySize(o, o.skewedTopo(topology.KindSkewed7030), schemes, experiment.MetricDelay)
			fig.ID, fig.Title = "Ablation T", "Prefix-table scaling (MRAI=0.5s)"
			return fig, err
		},
	}
}

func ablationPolicy() Experiment {
	return Experiment{
		ID:    "ablation-policy",
		Title: "Gao–Rexford policies vs the paper's policy-free routing",
		What: "valley-free export rules prune the set of alternate paths, " +
			"so policy routing explores less and converges faster after large " +
			"failures (hierarchical relationships: full reachability preserved)",
		Run: func(o Options) (experiment.Figure, error) {
			o = o.normalize()
			d := 500 * time.Millisecond
			fig, err := o.sweep(experiment.SweepConfig{
				SeriesNames:           []string{"no policy", "Gao-Rexford"},
				Xs:                    o.FailureSizes,
				Trials:                o.Trials,
				Metric:                experiment.MetricDelay,
				SameWorldAcrossSeries: true,
				Workers:               o.Workers,
				Progress:              o.Progress,
				Cell: func(si int, x float64) experiment.Scenario {
					sc := experiment.Scenario{
						Topology: o.skewedTopo(topology.KindSkewed7030),
						Failure:  failure.Geographic(x / 100),
						Scheme:   experiment.ConstantMRAI(d),
						Seed:     o.Seed,
					}
					if si == 1 {
						sc.PolicyHierarchical = true
					}
					return sc
				},
			})
			if err != nil {
				return experiment.Figure{}, err
			}
			fig.ID, fig.Title = "Ablation G", "Routing policies (MRAI=0.5s)"
			fig.XLabel = "failure size (% of routers)"
			return fig, err
		},
	}
}

func ablationDamping() Experiment {
	return Experiment{
		ID:    "ablation-damping",
		Title: "RFC 2439 route-flap damping under large failures",
		What: "damping with a short half-life curbs path exploration; the " +
			"paper's schemes achieve the same without suppressing reachability",
		Run: func(o Options) (experiment.Figure, error) {
			o = o.normalize()
			d := 500 * time.Millisecond
			schemes := []experiment.Scheme{
				named("no damping", experiment.ConstantMRAI(d)),
				named("damping", experiment.Custom("", func(p *bgp.Params) {
					p.MRAI = mrai.Constant(d)
					p.Damping = bgp.DefaultDamping()
				})),
				named("batch (no damping)", experiment.Batching(d)),
			}
			fig, err := sweepBySize(o, o.skewedTopo(topology.KindSkewed7030), schemes, experiment.MetricDelay)
			fig.ID, fig.Title = "Ablation R", "Route-flap damping (MRAI=0.5s)"
			return fig, err
		},
	}
}

func ablationOracle() Experiment {
	return Experiment{
		ID:    "ablation-oracle-mrai",
		Title: "Oracle (failure-extent-aware) MRAI vs dynamic",
		What: "the paper's future-work ideal — set the MRAI from the known " +
			"failure extent — bounds how much headroom the dynamic scheme leaves",
		Run: func(o Options) (experiment.Figure, error) {
			o = o.normalize()
			schemes := []experiment.Scheme{
				experiment.OracleMRAI(),
				named("dynamic", experiment.PaperDynamicMRAI()),
				experiment.ConstantMRAI(500 * time.Millisecond),
				experiment.ConstantMRAI(2250 * time.Millisecond),
			}
			fig, err := sweepBySize(o, o.skewedTopo(topology.KindSkewed7030), schemes, experiment.MetricDelay)
			fig.ID, fig.Title = "Ablation O", "Oracle failure-extent-aware MRAI"
			return fig, err
		},
	}
}

func ablationSuperfluous() Experiment {
	return Experiment{
		ID:    "ablation-superfluous",
		Title: "Batching plus superfluous-update elimination",
		What: "dropping updates that repeat the Adj-RIB-In state (the paper's " +
			"proposed batching improvement) trims additional processing work",
		Run: func(o Options) (experiment.Figure, error) {
			o = o.normalize()
			d := 500 * time.Millisecond
			schemes := []experiment.Scheme{
				named("batch", experiment.Batching(d)),
				named("batch+noop-skip", experiment.Custom("", func(p *bgp.Params) {
					p.MRAI = mrai.Constant(d)
					p.Queue = bgp.QueueBatched
					p.SkipNoopUpdates = true
				})),
				named("fifo", experiment.ConstantMRAI(d)),
			}
			fig, err := sweepBySize(o, o.skewedTopo(topology.KindSkewed7030), schemes, experiment.MetricDelay)
			fig.ID, fig.Title = "Ablation N", "Superfluous-update elimination (MRAI=0.5s)"
			return fig, err
		},
	}
}

func ablationWithdrawalMRAI() Experiment {
	return Experiment{
		ID:    "ablation-withdrawal-mrai",
		Title: "Rate-limiting withdrawals vs RFC 1771 behaviour",
		What: "delaying withdrawals behind the MRAI slows the removal of dead " +
			"routes and increases convergence delay",
		Run: func(o Options) (experiment.Figure, error) {
			o = o.normalize()
			d := 2250 * time.Millisecond
			schemes := []experiment.Scheme{
				named("withdrawals immediate", experiment.ConstantMRAI(d)),
				named("withdrawals rate-limited", experiment.Custom("", func(p *bgp.Params) {
					p.MRAI = mrai.Constant(d)
					p.RateLimitWithdrawals = true
				})),
			}
			fig, err := sweepBySize(o, o.skewedTopo(topology.KindSkewed7030), schemes, experiment.MetricDelay)
			fig.ID, fig.Title = "Ablation W", "Withdrawal rate limiting (MRAI=2.25s)"
			return fig, err
		},
	}
}

func ablationBatchDiscard() Experiment {
	return Experiment{
		ID:    "ablation-batch-discard",
		Title: "Batching with and without staleness discard",
		What: "destination grouping alone helps; deleting superseded " +
			"same-neighbor updates removes additional dead processing work",
		Run: func(o Options) (experiment.Figure, error) {
			o = o.normalize()
			d := 500 * time.Millisecond
			schemes := []experiment.Scheme{
				named("batch+discard", experiment.Batching(d)),
				named("batch only", experiment.Custom("", func(p *bgp.Params) {
					p.MRAI = mrai.Constant(d)
					p.Queue = bgp.QueueBatched
					p.BatchDiscardStale = false
				})),
				named("fifo", experiment.ConstantMRAI(d)),
			}
			fig, err := sweepBySize(o, o.skewedTopo(topology.KindSkewed7030), schemes, experiment.MetricDelay)
			fig.ID, fig.Title = "Ablation B", "Batch staleness discard (MRAI=0.5s)"
			return fig, err
		},
	}
}

func ablationDynamicSignal() Experiment {
	return Experiment{
		ID:    "ablation-dynamic-signal",
		Title: "Dynamic MRAI overload signals",
		What: "unfinished work (the paper's choice) and CPU utilization both " +
			"work; the message-rate signal is hardest to threshold",
		Run: func(o Options) (experiment.Figure, error) {
			o = o.normalize()
			schemes := []experiment.Scheme{
				named("work", experiment.PaperDynamicMRAI()),
				named("utilization", experiment.Custom("", func(p *bgp.Params) {
					p.MRAI = mrai.DynamicUtilization(mrai.PaperLevels, 0.85, 0.20)
				})),
				named("msg rate", experiment.Custom("", func(p *bgp.Params) {
					p.MRAI = mrai.DynamicMsgRate(mrai.PaperLevels, 40, 4)
				})),
			}
			fig, err := sweepBySize(o, o.skewedTopo(topology.KindSkewed7030), schemes, experiment.MetricDelay)
			fig.ID, fig.Title = "Ablation S", "Dynamic MRAI overload signal"
			return fig, err
		},
	}
}

func ablationPerDestMRAI() Experiment {
	return Experiment{
		ID:    "ablation-per-dest-mrai",
		Title: "Per-peer vs per-destination MRAI",
		What: "the per-destination timer (impractical at Internet scale) lets " +
			"unrelated destinations bypass each other's timers",
		Run: func(o Options) (experiment.Figure, error) {
			o = o.normalize()
			d := 2250 * time.Millisecond
			schemes := []experiment.Scheme{
				named("per-peer", experiment.ConstantMRAI(d)),
				named("per-destination", experiment.Custom("", func(p *bgp.Params) {
					p.MRAI = mrai.Constant(d)
					p.PerDestinationMRAI = true
				})),
			}
			fig, err := sweepBySize(o, o.skewedTopo(topology.KindSkewed7030), schemes, experiment.MetricDelay)
			fig.ID, fig.Title = "Ablation P", "MRAI timer granularity (MRAI=2.25s)"
			return fig, err
		},
	}
}

func ablationQueueDiscipline() Experiment {
	return Experiment{
		ID:    "ablation-queue-discipline",
		Title: "Queue discipline: FIFO vs router-style batch vs destination batch",
		What: "per-peer TCP-buffer batching (production routers) helps a " +
			"little; the paper's per-destination batching helps much more for large failures",
		Run: func(o Options) (experiment.Figure, error) {
			o = o.normalize()
			d := 500 * time.Millisecond
			schemes := []experiment.Scheme{
				named("fifo", experiment.ConstantMRAI(d)),
				named("router batch", experiment.Custom("", func(p *bgp.Params) {
					p.MRAI = mrai.Constant(d)
					p.Queue = bgp.QueueRouterBatch
				})),
				named("dest batch", experiment.Batching(d)),
			}
			fig, err := sweepBySize(o, o.skewedTopo(topology.KindSkewed7030), schemes, experiment.MetricDelay)
			fig.ID, fig.Title = "Ablation Q", "Queue discipline (MRAI=0.5s)"
			return fig, err
		},
	}
}

func ablationDeshpandeSikdar() Experiment {
	return Experiment{
		ID:    "ablation-deshpande-sikdar",
		Title: "Deshpande–Sikdar MRAI tweaks (related work)",
		What: "timer cancellation and flap-count gating can cut delay for " +
			"small failures but inflate message counts, as their paper reports",
		Run: func(o Options) (experiment.Figure, error) {
			o = o.normalize()
			d := 2250 * time.Millisecond
			schemes := []experiment.Scheme{
				named("plain", experiment.ConstantMRAI(d)),
				named("cancel-on-change", experiment.Custom("", func(p *bgp.Params) {
					p.MRAI = mrai.Constant(d)
					p.CancelOnChange = true
				})),
				named("flap-gate(3)", experiment.Custom("", func(p *bgp.Params) {
					p.MRAI = mrai.Constant(d)
					p.FlapGate = 3
				})),
			}
			fig, err := sweepBySize(o, o.skewedTopo(topology.KindSkewed7030), schemes, experiment.MetricMessages)
			fig.ID, fig.Title = "Ablation D", "Deshpande–Sikdar schemes, message cost (MRAI=2.25s)"
			return fig, err
		},
	}
}

func ablationDetectionDelay() Experiment {
	return Experiment{
		ID:    "ablation-detection-delay",
		Title: "Failure detection latency",
		What: "a nonzero session-down detection delay shifts every curve up " +
			"by roughly the detection time without changing the ordering of schemes",
		Run: func(o Options) (experiment.Figure, error) {
			o = o.normalize()
			d := 500 * time.Millisecond
			mk := func(name string, detect time.Duration) experiment.Scheme {
				return named(name, experiment.Custom("", func(p *bgp.Params) {
					p.MRAI = mrai.Constant(d)
					p.DetectDelay = detect
				}))
			}
			schemes := []experiment.Scheme{
				mk("detect=0", 0),
				mk("detect=1s", time.Second),
				mk("detect=5s", 5*time.Second),
			}
			fig, err := sweepBySize(o, o.skewedTopo(topology.KindSkewed7030), schemes, experiment.MetricDelay)
			fig.ID, fig.Title = "Ablation F", "Failure detection delay (MRAI=0.5s)"
			return fig, err
		},
	}
}

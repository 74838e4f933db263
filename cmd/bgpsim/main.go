// Command bgpsim runs one BGP large-scale-failure scenario and reports
// the post-failure convergence delay and message counts.
//
// Usage:
//
//	bgpsim -topo skewed-70-30 -nodes 120 -fail 5 -scheme mrai=0.5
//	bgpsim -topo realistic -nodes 120 -fail 10 -scheme batch+dynamic -trials 5
//	bgpsim -fail 10 -trials 8 -workers 4   # trials in parallel, same results
//
// Churn programs replace the single batch failure with a streaming
// perturbation program; every event opens its own measurement window and
// the per-window metric stream is printed (deterministic per seed):
//
//	bgpsim -churn poisson-link-flap -churn-rate 0.1 -churn-duration 60s
//	bgpsim -churn rolling-outage -churn-regions 4 -churn-period 30s -churn-fraction 0.05
//	bgpsim -churn flap-cycle -churn-cycles 5 -churn-period 20s
//
// Schemes: mrai=<seconds>, degree=<low>,<high>, dynamic, batch[=<seconds>],
// batch+dynamic.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bgpsim"
	"bgpsim/internal/churn"
	"bgpsim/internal/profiling"
	"bgpsim/internal/topology"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bgpsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) (err error) {
	fs := flag.NewFlagSet("bgpsim", flag.ContinueOnError)
	var (
		topoKind = fs.String("topo", "skewed-70-30", "topology kind (see topogen -kinds)")
		nodes    = fs.Int("nodes", 120, "node count (AS count for realistic)")
		failPct  = fs.Float64("fail", 5, "failure size, percent of routers")
		scheme   = fs.String("scheme", "mrai=30", "scheme: mrai=S | degree=L,H | dynamic | batch[=S] | batch+dynamic | oracle")
		trials   = fs.Int("trials", 1, "replicated trials")
		workers  = fs.Int("workers", 0, "trial worker pool size (0 = GOMAXPROCS, 1 = serial; same results either way)")
		seed     = fs.Int64("seed", 1, "base seed")
		prefixes = fs.Int("prefixes", 1, "prefixes originated per AS")
		policy   = fs.Bool("policy", false, "enable Gao-Rexford policies (hierarchical relationships)")

		churnKind  = fs.String("churn", "", "run a churn program instead of a batch failure: poisson-link-flap | poisson-node-fail | rolling-outage | flap-cycle")
		churnRate  = fs.Float64("churn-rate", 0.1, "poisson kinds: mean arrivals per simulated second")
		churnDur   = fs.Duration("churn-duration", time.Minute, "poisson kinds: arrival horizon in simulated time")
		churnHold  = fs.Duration("churn-hold-min", 4*time.Second, "minimum hold (down) time per perturbation")
		churnHoldX = fs.Duration("churn-hold-max", 12*time.Second, "maximum hold (down) time per perturbation")
		churnCyc   = fs.Int("churn-cycles", 4, "flap-cycle: repetition count")
		churnPer   = fs.Duration("churn-period", 30*time.Second, "flap-cycle and rolling-outage: spacing between perturbations")
		churnReg   = fs.Int("churn-regions", 3, "rolling-outage: region count sweeping the grid")
		churnFrac  = fs.Float64("churn-fraction", 0.05, "rolling-outage: fraction of routers failing per region")
	)
	var prof profiling.Config
	prof.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := prof.Start(); err != nil {
		return err
	}
	defer func() { err = errors.Join(err, prof.Stop()) }()
	sch, err := bgpsim.ParseScheme(*scheme)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *churnKind != "" {
		if *policy {
			return fmt.Errorf("-policy is not supported with -churn (churn programs run the default full-mesh policy)")
		}
		csc := churn.Scenario{
			Topology: bgpsim.MultiPrefix(bgpsim.TopologySpec{Kind: topology.Kind(*topoKind), N: *nodes}, *prefixes),
			Scheme:   *scheme,
			Program: churn.Spec{
				Kind:     churn.Kind(*churnKind),
				Duration: *churnDur,
				Rate:     *churnRate,
				HoldMin:  *churnHold,
				HoldMax:  *churnHoldX,
				Cycles:   *churnCyc,
				Period:   *churnPer,
				Regions:  *churnReg,
				Fraction: *churnFrac,
			},
			Seed: *seed,
		}
		if err := csc.Validate(); err != nil {
			return err
		}
		rr, err := churn.Run(ctx, csc, *trials, *workers, nil)
		if err != nil {
			return err
		}
		fmt.Fprint(out, rr.Render())
		return nil
	}

	sc := bgpsim.Scenario{
		Topology:           bgpsim.MultiPrefix(bgpsim.TopologySpec{Kind: topology.Kind(*topoKind), N: *nodes}, *prefixes),
		Failure:            bgpsim.GeographicFailure(*failPct / 100),
		Scheme:             sch,
		PolicyHierarchical: *policy,
		Seed:               *seed,
	}
	st, err := bgpsim.RunTrials(ctx, sc, *trials, *workers)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "topology      %s n=%d\n", *topoKind, *nodes)
	fmt.Fprintf(out, "failure       %.3g%% of routers (geographic, grid center)\n", *failPct)
	fmt.Fprintf(out, "scheme        %s\n", sch.Name)
	fmt.Fprintf(out, "trials        %d\n", st.N)
	fmt.Fprintf(out, "delay         %.3fs mean (std %.3fs)\n", st.MeanDelay.Seconds(), st.StdDelay.Seconds())
	fmt.Fprintf(out, "messages      %.0f mean (std %.0f)\n", st.MeanMessages, st.StdMessages)
	if st.MeanDiscard > 0 {
		fmt.Fprintf(out, "stale dropped %.0f mean\n", st.MeanDiscard)
	}
	for i, r := range st.Results {
		fmt.Fprintf(out, "  trial %d: delay=%.3fs msgs=%d (ann=%d wd=%d) failed=%d/%d\n",
			i, r.Delay.Seconds(), r.Messages, r.Announcements, r.Withdrawals, r.FailedNodes, r.Nodes)
	}
	return nil
}

// Command bgptrace runs one failure scenario with full event tracing and
// prints a convergence analysis: update-activity time series, route
// stabilization quantiles, and the busiest routers. Optionally dumps the
// raw event log.
//
// The trial starts from the installed converged state at time zero, so
// every absolute time it prints — the report's window start, each
// -events line — counts from there: the failure sits at 5s, and no
// event precedes it.
//
// Usage:
//
//	bgptrace -nodes 60 -fail 10 -scheme dynamic
//	bgptrace -nodes 60 -fail 10 -scheme batch -events -kind send | head -50
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"bgpsim"
	"bgpsim/internal/analysis"
	"bgpsim/internal/profiling"
	"bgpsim/internal/topology"
	"bgpsim/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bgptrace:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("bgptrace", flag.ContinueOnError)
	var (
		topoKind = fs.String("topo", "skewed-70-30", "topology kind")
		nodes    = fs.Int("nodes", 60, "node count")
		failPct  = fs.Float64("fail", 10, "failure size, percent of routers")
		scheme   = fs.String("scheme", "mrai=0.5", "scheme (same syntax as cmd/bgpsim)")
		seed     = fs.Int64("seed", 1, "seed")
		prefixes = fs.Int("prefixes", 1, "prefixes originated per AS")
		bucket   = fs.Duration("bucket", time.Second, "activity time-series bucket")
		events   = fs.Bool("events", false, "dump the raw event log (absolute times; the failure is at 5s)")
		kindName = fs.String("kind", "", "with -events: only this kind (send, recv, proc, route, timer)")
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
	rec := &trace.Recorder{}
	base := bgpsim.DefaultParams()
	base.Tracer = rec
	result, err := bgpsim.Run(bgpsim.Scenario{
		Topology: bgpsim.MultiPrefix(bgpsim.TopologySpec{Kind: topology.Kind(*topoKind), N: *nodes}, *prefixes),
		Failure:  bgpsim.GeographicFailure(*failPct / 100),
		Scheme:   sch,
		Base:     &base,
		Seed:     *seed,
	})
	if err != nil {
		return err
	}

	fmt.Printf("scheme            %s\n", sch.Name)
	fmt.Printf("failed            %d/%d routers\n", result.FailedNodes, result.Nodes)
	fmt.Printf("convergence delay %v\n", result.Delay.Round(time.Millisecond))
	report, err := analysis.Analyze(rec.Events(), result.WindowStart, *bucket)
	if err != nil {
		return err
	}
	fmt.Print(report.Render())

	if *events {
		fmt.Println("\nevent log (post-failure):")
		var filter trace.Kind
		switch *kindName {
		case "send":
			filter = trace.KindSend
		case "recv":
			filter = trace.KindReceive
		case "proc":
			filter = trace.KindProcess
		case "route":
			filter = trace.KindRouteChange
		case "timer":
			filter = trace.KindTimerRestart
		case "":
		default:
			return fmt.Errorf("unknown event kind %q", *kindName)
		}
		for _, e := range rec.Events() {
			if e.At < result.WindowStart {
				continue
			}
			if filter != 0 && e.Kind != filter {
				continue
			}
			fmt.Println(e.String())
		}
	}
	return nil
}

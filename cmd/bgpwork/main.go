// Command bgpwork is a worker for distributed figure runs: it pulls
// leases (the trials of one sweep cell) from a bgpfig -serve
// coordinator, executes them with the local simulator, pushes back
// results — each completion's acknowledgement carries the next lease —
// and exits when the coordinator shuts down or goes away.
//
// Usage:
//
//	bgpwork -connect coordinator:9090
//	bgpwork -connect coordinator:9090 -id rack3 -workers 8
//
// The first SIGTERM/SIGINT drains the worker gracefully: the in-flight
// lease (at most one cell's trials) finishes and its results are
// submitted, asking for no further lease, before the process exits, so
// no lease has to expire. A second signal aborts immediately (the lease
// expires and its trials are reassigned).
//
// Results are deterministic by construction (trial seeds derive from
// grid indices), so any mix of bgpwork processes produces figures
// byte-identical to a local run. Coordinator and workers must be built
// from the same source.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bgpsim/internal/dist"
	"bgpsim/internal/profiling"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bgpwork:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("bgpwork", flag.ContinueOnError)
	var (
		connect = fs.String("connect", "", "coordinator address (host:port or URL); required")
		id      = fs.String("id", "", "worker name in coordinator logs (default hostname-pid)")
		workers = fs.Int("workers", 0, "goroutines a lease's trials run on (0 = GOMAXPROCS, 1 = serial; same bytes either way)")
		poll    = fs.Duration("poll", 200*time.Millisecond, "idle delay between polls while the coordinator has no work")
		quiet   = fs.Bool("q", false, "suppress per-job progress output")
	)
	var prof profiling.Config
	prof.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *connect == "" {
		return fmt.Errorf("-connect is required (the bgpfig -serve address)")
	}
	if err := prof.Start(); err != nil {
		return err
	}
	defer func() { err = errors.Join(err, prof.Stop()) }()

	w := &dist.Worker{
		Base:         dist.BaseURL(*connect),
		ID:           *id,
		SimWorkers:   *workers,
		PollInterval: *poll,
	}
	if !*quiet {
		w.Log = log.New(os.Stderr, "", log.LstdFlags)
	}

	// First signal: graceful drain (finish and submit the in-flight
	// lease, then exit). Second signal: hard cancel.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "bgpwork: draining — finishing in-flight lease (signal again to abort)")
		w.Drain()
		<-sigc
		cancel()
	}()

	return w.Work(ctx)
}

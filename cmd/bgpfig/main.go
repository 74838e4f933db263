// Command bgpfig regenerates the paper's evaluation figures.
//
// Usage:
//
//	bgpfig -list
//	bgpfig -fig 7                  # one figure at paper scale
//	bgpfig -fig all -quick         # everything at reduced scale
//	bgpfig -fig 3 -workers 8       # parallel sweep (same bytes as serial)
//	bgpfig -fig 1 -nodes 60 -trials 2 -seed 7 -o out/
//
// Distributed runs split the same work across machines (same bytes as
// local): a coordinator serves sweep cells over HTTP and any number of
// workers (the bgpwork command) execute them:
//
//	bgpfig -fig 3 -serve :9090 -checkpoint fig3.ckpt -o out/
//	bgpwork -connect coordinator:9090     # on each worker machine
//
// The coordinator exits once its figures are done, and its workers with
// it.
//
// Each figure is printed as an aligned text table (the same series the
// paper plots); -o additionally writes one .txt per figure.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"bgpsim"
	"bgpsim/internal/dist"
	"bgpsim/internal/profiling"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bgpfig:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("bgpfig", flag.ContinueOnError)
	var (
		figID    = fs.String("fig", "all", "figure to regenerate: all, 1..13, or an ablation id")
		list     = fs.Bool("list", false, "list available experiments and exit")
		quick    = fs.Bool("quick", false, "reduced scale (60 nodes, 1 trial, coarse axes)")
		nodes    = fs.Int("nodes", 0, "override node/AS count")
		trials   = fs.Int("trials", 0, "override trials per data point")
		seed     = fs.Int64("seed", 0, "override base seed")
		maxAS    = fs.Int("max-as-size", 0, "override fig13's routers-per-AS cap (paper: 100)")
		prefixes = fs.Int("prefixes", 0, "prefixes originated per AS (0 or 1 = the paper's single prefix; 1 must reproduce recorded figures byte-identically)")
		workers  = fs.Int("workers", 0, "simulation worker pool size (0 = GOMAXPROCS, 1 = serial; same bytes either way)")
		outDir   = fs.String("o", "", "also write each figure to <dir>/<id>.txt")
		asJSON   = fs.Bool("json", false, "with -o: additionally write <id>.json for plotting tools")
		quiet    = fs.Bool("q", false, "suppress progress output")

		serve    = fs.String("serve", "", "coordinate a distributed run: listen on host:port and hand trial jobs to workers")
		ckptPath = fs.String("checkpoint", "", "with -serve: record completed trials here and resume from it after a restart")
		leaseTTL = fs.Duration("lease-ttl", 30*time.Second, "with -serve: reassign a lease's trials if its worker is silent this long")
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

	if *list {
		for _, e := range bgpsim.Experiments() {
			fmt.Printf("%-26s %s\n", e.ID, e.Title)
		}
		return nil
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := bgpsim.PaperOptions()
	if *quick {
		opts = bgpsim.QuickOptions()
	}
	if *nodes > 0 {
		opts.Nodes = *nodes
	}
	if *trials > 0 {
		opts.Trials = *trials
	}
	if *seed != 0 {
		opts.Seed = *seed
	}
	if *maxAS > 0 {
		opts.RealisticMaxASSize = *maxAS
	}
	if *prefixes > 0 {
		opts.PrefixesPerOrigin = *prefixes
	}
	opts.Workers = *workers

	var exps []bgpsim.Experiment
	if *figID == "all" {
		exps = bgpsim.Experiments()
	} else {
		e, err := bgpsim.LookupExperiment(*figID)
		if err != nil {
			return err
		}
		exps = []bgpsim.Experiment{e}
	}

	var coord *dist.Coordinator
	if *serve != "" {
		cc := dist.CoordinatorConfig{LeaseTTL: *leaseTTL, CheckpointPath: *ckptPath}
		if !*quiet {
			cc.Log = log.New(os.Stderr, "", log.LstdFlags)
		}
		var err error
		if coord, err = dist.NewCoordinator(cc); err != nil {
			return err
		}
		ln, err := net.Listen("tcp", *serve)
		if err != nil {
			return err
		}
		srv := dist.NewServer(coord.Handler())
		go func() {
			if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "bgpfig: coordinator server:", err)
			}
		}()
		if !*quiet {
			fmt.Fprintf(os.Stderr, "bgpfig: coordinating on %s\n", ln.Addr())
		}
		defer func() {
			// Tell polling workers to exit, then drain in-flight requests.
			coord.Shutdown()
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			srv.Shutdown(sctx)
		}()
	} else if *ckptPath != "" {
		return fmt.Errorf("-checkpoint requires -serve")
	}

	for _, e := range exps {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "== %s: %s\n", e.ID, e.Title)
			opts.Progress = newProgressLine(os.Stderr).update
		}
		opts.Context = ctx
		if coord != nil {
			opts.Sweeper = coord.SweeperFor(ctx, e.ID, opts)
		}
		fig, err := e.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		out := fig.Render()
		fmt.Println(out)
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return err
			}
			name := strings.ReplaceAll(e.ID, " ", "-")
			if err := os.WriteFile(filepath.Join(*outDir, name+".txt"), []byte(out), 0o644); err != nil {
				return err
			}
			if *asJSON {
				f, err := os.Create(filepath.Join(*outDir, name+".json"))
				if err != nil {
					return err
				}
				err = fig.WriteJSON(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// progressLine renders the "\r N/M cells" status line. The experiment
// layer serializes Progress callbacks with monotonic done counts, but
// cells complete out of order under parallel sweeps, so the printer
// guards independently: a lock against concurrent callers and a
// high-water mark so the rewritten line can never move backwards.
type progressLine struct {
	mu   sync.Mutex
	w    io.Writer
	last int
}

func newProgressLine(w io.Writer) *progressLine {
	return &progressLine{w: w}
}

func (p *progressLine) update(done, total int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if done <= p.last {
		return
	}
	p.last = done
	fmt.Fprintf(p.w, "\r   %d/%d cells", done, total)
	if done == total {
		fmt.Fprintln(p.w)
	}
}

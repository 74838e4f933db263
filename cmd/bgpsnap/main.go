// Command bgpsnap computes converged BGP routing state with the
// event-free snapshot backend (internal/snapshot) and reports on it —
// the scale mode of the snapshot work: the relaxation runs one
// destination at a time in O(nodes) memory, so topologies of 10,000+
// ASes, far beyond what the event-driven simulator can converge in
// reasonable time, are summarized in seconds.
//
// Usage:
//
//	bgpsnap -kind internet-like -n 10000
//	bgpsnap -kind internet-like -n 10000 -rel infer -rel-ratio 1.5
//	bgpsnap -in topo.json              # saved topology; uses any
//	                                   # relationship annotations it carries
//
// The report covers relaxation effort (rounds to the fixpoint),
// reachability (pairs with a converged route — under policy routing the
// degree heuristic can leave pairs without a valley-free path), and the
// path-length distribution, plus wall-clock time and process memory.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"bgpsim/internal/des"
	"bgpsim/internal/profiling"
	"bgpsim/internal/snapshot"
	"bgpsim/internal/topology"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bgpsnap:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("bgpsnap", flag.ContinueOnError)
	var (
		kind   = fs.String("kind", "internet-like", "topology family (see topogen -kinds)")
		n      = fs.Int("n", 10000, "node count (AS count for realistic)")
		seed   = fs.Int64("seed", 1, "generator seed")
		inPath = fs.String("in", "", "read a saved topology (topogen JSON) instead of generating")
		rel    = fs.String("rel", "", "route under Gao-Rexford policies: infer (degree heuristic) or hierarchical (BFS hierarchy); default is policy-free shortest path")
		relRat = fs.Float64("rel-ratio", 0, "with -rel infer: provider degree ratio (0 = 1.5)")
		rounds = fs.Int("max-rounds", 0, "relaxation round cap per destination (0 = 4n+16)")
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

	var (
		net  *topology.Network
		rels *topology.Relationships
	)
	buildStart := time.Now()
	if *inPath != "" {
		f, err2 := os.Open(*inPath)
		if err2 != nil {
			return err2
		}
		defer f.Close()
		net, rels, err = topology.ReadJSONWith(f)
	} else {
		spec := topology.Spec{Kind: topology.Kind(*kind), N: *n}
		net, err = spec.Build(des.NewRNG(*seed))
	}
	if err != nil {
		return err
	}
	if *rel != "" {
		spec := topology.Spec{Relationships: *rel, RelationshipRatio: *relRat}
		if rels, err = spec.BuildRelationships(net); err != nil {
			return err
		}
	}
	buildTime := time.Since(buildStart)

	relaxStart := time.Now()
	sum, err := snapshot.Stats(net, snapshot.Config{Policy: rels, MaxRounds: *rounds})
	if err != nil {
		return err
	}
	relaxTime := time.Since(relaxStart)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	policy := "shortest path (policy-free)"
	if rels != nil {
		policy = "Gao-Rexford valley-free"
	}
	fmt.Fprintf(out, "nodes        %d\n", sum.Nodes)
	fmt.Fprintf(out, "links        %d\n", sum.Links)
	fmt.Fprintf(out, "ases         %d\n", sum.ASes)
	fmt.Fprintf(out, "policy       %s\n", policy)
	fmt.Fprintf(out, "pairs        %d (%d reachable, %.2f%%)\n",
		sum.Pairs, sum.Reachable, 100*float64(sum.Reachable)/float64(sum.Pairs))
	fmt.Fprintf(out, "rounds       %.2f mean, %d max (per destination)\n", sum.MeanRounds, sum.MaxRounds)
	fmt.Fprintf(out, "path length  %.2f mean, %d max (external hops)\n", sum.MeanPathLen, sum.MaxPathLen)
	fmt.Fprintln(out, "path length histogram:")
	for l, c := range sum.PathLenHist {
		if c == 0 {
			continue
		}
		label := fmt.Sprintf("%3d", l)
		if l == len(sum.PathLenHist)-1 {
			label = fmt.Sprintf("%2d+", l)
		}
		fmt.Fprintf(out, "  %s: %d\n", label, c)
	}
	fmt.Fprintf(out, "build time   %v\n", buildTime.Round(time.Millisecond))
	fmt.Fprintf(out, "relax time   %v\n", relaxTime.Round(time.Millisecond))
	fmt.Fprintf(out, "memory       %d MB sys high-water\n", ms.Sys>>20)
	return nil
}

// Command topogen generates and inspects experiment topologies — the
// repo's replacement for the modified BRITE generator the paper used.
//
// Usage:
//
//	topogen -kinds                          # list families
//	topogen -kind skewed-70-30 -n 120 -seed 1 -o topo.json
//	topogen -in topo.json -stats            # inspect a saved topology
//	topogen -kind internet-like -n 500 -rel infer -o topo.json
//	                                        # annotate Gao-Rexford
//	                                        # relationships into the file
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"bgpsim"
	"bgpsim/internal/des"
	"bgpsim/internal/profiling"
	"bgpsim/internal/topology"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "topogen:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("topogen", flag.ContinueOnError)
	var (
		kinds   = fs.Bool("kinds", false, "list topology families and exit")
		kind    = fs.String("kind", "skewed-70-30", "topology family")
		n       = fs.Int("n", 120, "node count (AS count for realistic)")
		seed    = fs.Int64("seed", 1, "generator seed")
		outPath = fs.String("o", "", "write JSON to this file (default stdout if no -stats)")
		inPath  = fs.String("in", "", "read a saved topology instead of generating")
		stats   = fs.Bool("stats", false, "print summary statistics")
		rel     = fs.String("rel", "", "annotate Gao-Rexford relationships: infer (degree heuristic) or hierarchical (BFS hierarchy); written into the JSON")
		relRat  = fs.Float64("rel-ratio", 0, "with -rel infer: degree ratio above which the bigger endpoint is the provider (0 = 1.5)")
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

	if *kinds {
		for _, k := range topology.Kinds() {
			fmt.Fprintln(out, k)
		}
		return nil
	}

	var net *bgpsim.Network
	var rels *topology.Relationships
	if *inPath != "" {
		f, err2 := os.Open(*inPath)
		if err2 != nil {
			return err2
		}
		defer f.Close()
		// A saved file may already carry annotations; -rel re-derives and
		// replaces them below.
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

	if *stats {
		printStats(out, net)
		printRelStats(out, rels)
	}
	switch {
	case *outPath != "":
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := net.WriteJSONWith(f, rels); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s (%d nodes, %d links)\n", *outPath, net.NumNodes(), net.NumLinks())
	case !*stats:
		return net.WriteJSONWith(out, rels)
	}
	return nil
}

// printRelStats summarizes a relationship annotation: how many inter-AS
// links are transit (customer-provider) versus peering.
func printRelStats(out io.Writer, rels *topology.Relationships) {
	if rels == nil {
		return
	}
	var transit, peering int
	for _, l := range rels.LinkAnnotations() {
		if l.Rel == topology.RelPeer {
			peering++
		} else {
			transit++
		}
	}
	fmt.Fprintf(out, "relationships  %d transit, %d peering\n", transit, peering)
}

func printStats(out io.Writer, net *bgpsim.Network) {
	m := topology.Metrics(net)
	fmt.Fprintf(out, "nodes          %d\n", m.Nodes)
	fmt.Fprintf(out, "ases           %d\n", m.ASes)
	fmt.Fprintf(out, "links          %d (%d inter-AS, %d IBGP)\n", m.Links, m.ExternalLinks, m.InternalLinks)
	fmt.Fprintf(out, "avg degree     %.2f\n", m.AvgDegree)
	fmt.Fprintf(out, "max degree     %d\n", m.MaxDegree)
	fmt.Fprintf(out, "connected      %v\n", m.Connected)
	fmt.Fprintf(out, "clustering     %.3f\n", m.Clustering)
	fmt.Fprintf(out, "avg path len   %.2f hops\n", m.AvgPathLength)
	fmt.Fprintf(out, "diameter       %d hops\n", m.Diameter)
	fmt.Fprintf(out, "assortativity  %+.3f\n", m.Assortativity)
	fmt.Fprintf(out, "degree entropy %.2f bits\n", m.DegreeEntropy)
	hist := net.DegreeHistogram()
	degrees := make([]int, 0, len(hist))
	for d := range hist {
		degrees = append(degrees, d)
	}
	sort.Ints(degrees)
	fmt.Fprintln(out, "degree histogram:")
	for _, d := range degrees {
		fmt.Fprintf(out, "  %3d: %d\n", d, hist[d])
	}
}

// Realistic Internet: the paper's Section 4.4 validation workload.
// Multi-router ASes (heavy-tailed sizes, full-mesh IBGP inside each AS),
// an Internet-derived inter-AS degree distribution, and geographic
// failures that take out whole city-sized regions — partial ASes
// included. Compares constant MRAIs against dynamic MRAI and batching,
// and inspects the router-level topology along the way.
package main

import (
	"fmt"
	"os"
	"time"

	"bgpsim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "realistic-internet:", err)
		os.Exit(1)
	}
}

func run() error {
	topo := bgpsim.Realistic(60)
	topo.MaxASSize = 12 // the paper used up to 100 routers/AS; 12 keeps this demo snappy

	// Inspect one instance of the topology first.
	net, err := bgpsim.BuildTopology(topo, 3)
	if err != nil {
		return err
	}
	internal, external := 0, 0
	for _, l := range net.Links() {
		if l.Internal {
			internal++
		} else {
			external++
		}
	}
	fmt.Printf("Topology: %d ASes, %d routers, %d IBGP sessions, %d inter-AS links\n",
		net.NumASes(), net.NumNodes(), internal, external)
	largest, size := 0, 0
	for as := 0; as < net.NumASes(); as++ {
		if n := len(net.NodesInAS(as)); n > size {
			largest, size = as, n
		}
	}
	fmt.Printf("Largest AS: #%d with %d routers\n\n", largest, size)

	// Fig 13-style comparison.
	dynamic, err := bgpsim.CustomDynamicMRAI(
		[]time.Duration{500 * time.Millisecond, 1500 * time.Millisecond, 3500 * time.Millisecond},
		650*time.Millisecond, 50*time.Millisecond)
	if err != nil {
		return err
	}
	dynamic.Name = "dynamic{0.5,1.5,3.5}"
	schemes := []bgpsim.Scheme{
		bgpsim.ConstantMRAI(500 * time.Millisecond),
		bgpsim.ConstantMRAI(3500 * time.Millisecond),
		dynamic,
		bgpsim.BatchedProcessing(500 * time.Millisecond),
	}

	fmt.Println("Convergence delay (s) after geographic failures (% of routers):")
	fmt.Printf("%-22s", "scheme")
	sizes := []float64{0.025, 0.10}
	for _, s := range sizes {
		fmt.Printf("  %8.1f%%", s*100)
	}
	fmt.Println()
	for _, scheme := range schemes {
		fmt.Printf("%-22s", scheme.Name)
		for _, s := range sizes {
			r, err := bgpsim.Run(bgpsim.Scenario{
				Topology: topo,
				Failure:  bgpsim.GeographicFailure(s),
				Scheme:   scheme,
				Seed:     3,
			})
			if err != nil {
				return err
			}
			fmt.Printf("  %9.2f", r.Delay.Seconds())
		}
		fmt.Println()
	}
	fmt.Println("\nAt this demo scale (60 ASes) routers rarely overload, so the low")
	fmt.Println("constant MRAI still wins and the high constant only adds waiting —")
	fmt.Println("the left side of the paper's V-curve. The full Fig 13 behaviour")
	fmt.Println("(low MRAI collapsing at 10%+ failures, dynamic/batching near-optimal)")
	fmt.Println("appears at paper scale: go run ./cmd/bgpfig -fig 13")
	return nil
}

// Regional disaster: the scenario the paper's introduction motivates.
// A contiguous geographic region fails — an earthquake, flood, or
// coordinated attack taking out 1% to 20% of the network's routers —
// and we ask how long the surviving Internet takes to re-converge under
// each scheme, and at what message cost.
//
// The output shows the paper's headline result: a single constant MRAI
// cannot win at both ends, while dynamic MRAI and batching stay near the
// per-size optimum.
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"bgpsim"
)

const (
	networkSize = 120
	trials      = 2
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "regional-disaster:", err)
		os.Exit(1)
	}
}

func run() error {
	schemes := []bgpsim.Scheme{
		bgpsim.ConstantMRAI(500 * time.Millisecond),
		bgpsim.ConstantMRAI(2250 * time.Millisecond),
		bgpsim.DynamicMRAI(),
		bgpsim.BatchedDynamic(),
	}
	sizes := []float64{0.01, 0.05, 0.10, 0.20}

	fmt.Printf("Post-failure convergence delay (s), %d-AS network, mean of %d trials\n\n", networkSize, trials)
	fmt.Printf("%-10s", "failure")
	for _, s := range schemes {
		fmt.Printf("  %14s", s.Name)
	}
	fmt.Println()
	for _, size := range sizes {
		fmt.Printf("%-10s", fmt.Sprintf("%.0f%%", size*100))
		for _, scheme := range schemes {
			st, err := bgpsim.RunTrials(context.Background(), bgpsim.Scenario{
				Topology: bgpsim.Skewed7030(networkSize),
				Failure:  bgpsim.GeographicFailure(size),
				Scheme:   scheme,
				Seed:     7, // shared across schemes: paired comparison
			}, trials, 0)
			if err != nil {
				return err
			}
			fmt.Printf("  %14.2f", st.MeanDelay.Seconds())
		}
		fmt.Println()
	}

	fmt.Println("\nMessage cost at 20% failure:")
	for _, scheme := range schemes {
		st, err := bgpsim.RunTrials(context.Background(), bgpsim.Scenario{
			Topology: bgpsim.Skewed7030(networkSize),
			Failure:  bgpsim.GeographicFailure(0.20),
			Scheme:   scheme,
			Seed:     7,
		}, trials, 0)
		if err != nil {
			return err
		}
		fmt.Printf("  %-16s %8.0f updates", scheme.Name, st.MeanMessages)
		if st.MeanDiscard > 0 {
			fmt.Printf("  (+%.0f stale updates deleted unprocessed)", st.MeanDiscard)
		}
		fmt.Println()
	}
	return nil
}

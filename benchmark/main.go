// Command benchmark is the repository's performance benchmark: five
// workloads that stress different layers of the simulator, end-to-end
// metrics measured with tracing off, and a traced run that
// breaks each workload down by layer. README.md in this directory is the
// manual; BENCHMARK.json at the repository root is the contract.
//
//	go run ./benchmark                                  every workload, untraced and traced
//	go run ./benchmark -workload trial500 -seed 3       one untraced run
//	go run ./benchmark -workload trial500 -trace 1      one traced run
//	go run ./benchmark -seeds 10 -set A.json            ten seeds per workload, kept for -compare
//	go run ./benchmark -seeds 10 -pairs OTHER -set B.json   the same, paired with another commit's binary
//	go run ./benchmark -compare A.json B.json           apply the BENCHMARK.json bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// defaultSeconds matches run_seconds in BENCHMARK.json.
const defaultSeconds = 10

func main() { os.Exit(mainCode(os.Args[1:], os.Stdout, os.Stderr)) }

func mainCode(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run this workload once and print its result object as the last line (default: every workload, as child processes)")
		seed     = fs.Int64("seed", 1, "workload seed: the only source of variation in the inputs")
		seconds  = fs.Float64("seconds", defaultSeconds, "how long an untraced run keeps measuring")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
		smoke    = fs.Bool("smoke", false, "toy worlds and one timed region per run: exercises every path in seconds, measures nothing")
		spans    = fs.String("spans", "", "with -trace 1: write the spans to this file as JSON when the run ends")
		seeds    = fs.Int("seeds", 1, "without -workload: untraced and traced runs per workload, on seeds -seed, -seed+1, ...")
		set      = fs.String("set", "", "without -workload: write every run to this file, for -compare; with -pairs the other binary's runs go to FILE"+otherSuffix)
		pairs    = fs.String("pairs", "", "without -workload: benchmark binary of another commit; each run is made by both, alternating which goes first, and the two sets are compared (other = A, this = B)")
		compare  = fs.Bool("compare", false, "compare two -set files A B against the bounds in BENCHMARK.json; exit 1 on a regression")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	sc := paperScale
	if *smoke {
		sc = smokeScale
		explicit := false
		fs.Visit(func(f *flag.Flag) { explicit = explicit || f.Name == "seconds" })
		if !explicit {
			*seconds = 0 // one timed region per run
		}
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two set files"))
		}
		regressed, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	case *workload == "":
		regressed, err := runAll(stdout, allConfig{
			seed: *seed, seeds: *seeds, seconds: *seconds, smoke: *smoke,
			set: *set, other: *pairs,
		})
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("-trace is 0 or 1, not %d", *trace))
	}
	res, err := runOne(runConfig{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		scale: sc, spans: *spans, log: stdout,
	})
	if err != nil {
		return fail(err)
	}
	printMetrics(stdout, *workload, res)
	line, err := json.Marshal(res) // map keys are marshalled in sorted order
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// printMetrics lists a run's metrics by name with their units.
func printMetrics(w io.Writer, workload string, res runResult) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "%-12s %-30s %16.6f %s\n", workload, name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%-12s attempted %d, failed %d, correct %v\n", workload, res.Attempted, res.Failed, res.Correct)
}

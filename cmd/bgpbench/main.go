// Command bgpbench runs the simulator's canonical benchmark suite
// (internal/bench, the same bodies `go test -bench` runs) outside the
// test harness and emits machine-readable results — BENCH.json, the one
// rolling baseline CI gates allocations against, is produced by this
// tool.
//
// Usage:
//
//	bgpbench                                # run everything, table to stdout
//	bgpbench -out BENCH.json                # also write JSON
//	bgpbench -run 'ConvergeAndFail' -benchtime 5x
//	bgpbench -check BENCH.json              # regression gate: fail if allocs/op
//	                                        # or bytes/op regressed >10%
//	bgpbench -list
//
// The -check mode compares allocs/op and bytes/op only: allocation counts are stable
// across machines, while ns/op is not, so CI can block on allocation
// regressions without flaking on shared-runner timing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
	"testing"

	"bgpsim/internal/bench"
	"bgpsim/internal/profiling"
)

// File is the BENCH.json document bgpbench writes.
type File struct {
	// Schema identifies the document format.
	Schema string `json:"schema"`
	// Go is the toolchain that produced the numbers.
	Go string `json:"go"`
	// GOOS and GOARCH identify the platform.
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	// Benchtime is the -benchtime value the run used.
	Benchtime string `json:"benchtime"`
	// Results holds one entry per benchmark, in suite order.
	Results []Result `json:"results"`
}

// Result is one benchmark's measurement.
type Result struct {
	// Name is the registry name (Benchmark<Name> under `go test`).
	Name string `json:"name"`
	// Iterations is the TOTAL iteration count behind NsPerOp — the sum
	// of b.N over all -runs repetitions, so NsPerOp is always
	// total-time / Iterations and never an average whose sample size is
	// misstated.
	Iterations int `json:"iterations"`
	// NsPerOp is wall-clock time per iteration across all runs
	// (machine-dependent).
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp is heap bytes allocated per iteration (iteration-
	// weighted across runs).
	BytesPerOp int64 `json:"bytes_per_op"`
	// AllocsPerOp is heap allocations per iteration — the number the
	// -check regression gate compares.
	AllocsPerOp int64 `json:"allocs_per_op"`
	// Runs is how many independent testing.Benchmark repetitions were
	// aggregated (the -runs flag).
	Runs int `json:"runs,omitempty"`
	// NsPerOpMin and NsPerOpMean summarize the per-run ns/op values:
	// the best single run (least scheduler noise) and the unweighted
	// mean across runs. With -runs 1 both equal NsPerOp.
	NsPerOpMin  float64 `json:"ns_per_op_min,omitempty"`
	NsPerOpMean float64 `json:"ns_per_op_mean,omitempty"`
	// Extra carries the benchmark's custom metrics (b.ReportMetric),
	// iteration-weighted across runs — notably the phase split
	// "setup-ns/op"/"storm-ns/op" of the large-scale entries and
	// "windows/op" of ChurnStep.
	Extra map[string]float64 `json:"extra,omitempty"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bgpbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	testing.Init() // register test.* flags so -benchtime reaches testing.Benchmark
	fs := flag.NewFlagSet("bgpbench", flag.ContinueOnError)
	var (
		list      = fs.Bool("list", false, "list benchmarks and exit")
		runExpr   = fs.String("run", "", "only run benchmarks matching this regexp")
		benchtime = fs.String("benchtime", "3x", "per-benchmark budget, Go benchtime syntax (3x, 1s, ...)")
		outPath   = fs.String("out", "", "write results as JSON to this file")
		checkPath = fs.String("check", "", "compare allocs/op against this baseline JSON and fail on regression")
		tolerance = fs.Float64("tolerance", 1.10, "with -check: allowed allocs/op ratio over baseline")
		prefixes  = fs.Int("prefixes", 0, "override ConvergeMultiPrefix's prefixes-per-AS dimension (0 = suite default)")
		shards    = fs.Int("shards", 0, "override ConvergeLargeScaleSharded's shard count (0 = suite default)")
		warm      = fs.Bool("warmstart", false, "run scenario-layer entries warm-started from the snapshot backend's fixpoint (same results, less wall clock)")
		runs      = fs.Int("runs", 1, "repeat each benchmark this many times; ns_per_op aggregates over all runs and the JSON records per-run min/mean")
	)
	var prof profiling.Config
	prof.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *runs < 1 {
		return fmt.Errorf("-runs must be at least 1")
	}
	if *prefixes > 0 {
		bench.MultiPrefixCount = *prefixes
	}
	if *shards > 0 {
		bench.ShardCount = *shards
	}
	bench.WarmStart = *warm

	if *list {
		for _, e := range bench.Suite() {
			fmt.Fprintln(out, e.Name)
		}
		return nil
	}

	var filter *regexp.Regexp
	if *runExpr != "" {
		var err error
		if filter, err = regexp.Compile(*runExpr); err != nil {
			return fmt.Errorf("bad -run regexp: %w", err)
		}
	}
	if err := flag.Lookup("test.benchtime").Value.Set(*benchtime); err != nil {
		return fmt.Errorf("bad -benchtime: %w", err)
	}

	if err := prof.Start(); err != nil {
		return err
	}
	defer prof.Stop()

	doc := File{
		Schema:    "bgpsim/bench/v1",
		Go:        runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Benchtime: *benchtime,
	}
	for _, e := range bench.Suite() {
		if filter != nil && !filter.MatchString(e.Name) {
			continue
		}
		r := measure(e, *runs)
		doc.Results = append(doc.Results, r)
		fmt.Fprintf(out, "%-28s %10d ns/op %12d B/op %10d allocs/op (n=%d)\n",
			r.Name, int64(r.NsPerOp), r.BytesPerOp, r.AllocsPerOp, r.Iterations)
		for _, k := range sortedKeys(r.Extra) {
			fmt.Fprintf(out, "%-28s %10d %s\n", "", int64(r.Extra[k]), k)
		}
	}
	if len(doc.Results) == 0 {
		return fmt.Errorf("no benchmarks matched -run %q", *runExpr)
	}

	if *outPath != "" {
		if err := writeJSON(*outPath, doc); err != nil {
			return err
		}
	}
	if *checkPath != "" {
		return check(out, doc, *checkPath, *tolerance)
	}
	return nil
}

// measure runs one suite entry `runs` times through testing.Benchmark
// and aggregates honestly: the headline ns/op is total time over total
// iterations (so Iterations is the true sample size), per-run min/mean
// expose the spread, and allocation counts and ReportMetric extras are
// iteration-weighted.
func measure(e bench.Entry, runs int) Result {
	var (
		totalN    int
		totalNs   int64
		sumBytes  int64
		sumAllocs int64
		perRunNs  []float64
		extraSums = map[string]float64{}
	)
	for k := 0; k < runs; k++ {
		res := testing.Benchmark(e.Fn)
		n := res.N
		totalN += n
		totalNs += res.T.Nanoseconds()
		sumBytes += res.AllocedBytesPerOp() * int64(n)
		sumAllocs += res.AllocsPerOp() * int64(n)
		perRunNs = append(perRunNs, float64(res.T.Nanoseconds())/float64(n))
		for name, v := range res.Extra {
			extraSums[name] += v * float64(n)
		}
	}
	r := Result{
		Name:        e.Name,
		Iterations:  totalN,
		NsPerOp:     float64(totalNs) / float64(totalN),
		BytesPerOp:  sumBytes / int64(totalN),
		AllocsPerOp: sumAllocs / int64(totalN),
		Runs:        runs,
	}
	min, sum := perRunNs[0], 0.0
	for _, v := range perRunNs {
		if v < min {
			min = v
		}
		sum += v
	}
	r.NsPerOpMin, r.NsPerOpMean = min, sum/float64(len(perRunNs))
	if len(extraSums) > 0 {
		r.Extra = make(map[string]float64, len(extraSums))
		for name, s := range extraSums {
			r.Extra[name] = s / float64(totalN)
		}
	}
	return r
}

// sortedKeys returns m's keys in fixed order for stable table output.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeJSON writes the document with trailing newline, atomically enough
// for CI artifact use.
func writeJSON(path string, doc File) error {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// check compares allocs/op and bytes/op in doc against the baseline
// file and returns an error when any shared benchmark regressed beyond
// the tolerance. Both metrics count heap allocation, which is stable
// across machines (unlike ns/op); bytes/op is what catches a footprint
// regression that keeps the allocation count flat — e.g. widening a
// per-destination array — which matters once the prefix dimension
// multiplies every table. Benchmarks present on only one side are
// reported but not fatal, so adding or retiring a benchmark does not
// break the gate.
func check(out *os.File, doc File, baselinePath string, tolerance float64) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base File
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("%s: %w", baselinePath, err)
	}
	baseline := make(map[string]Result, len(base.Results))
	for _, r := range base.Results {
		baseline[r.Name] = r
	}
	// Entries allocating under this many bytes per op are exempt from
	// the bytes gate: at that size a single map-growth event crosses any
	// ratio threshold, and the allocs gate already covers them.
	const bytesFloor = 4096
	var regressions []string
	for _, r := range doc.Results {
		b, ok := baseline[r.Name]
		if !ok {
			fmt.Fprintf(out, "check: %s has no baseline (new benchmark?), skipping\n", r.Name)
			continue
		}
		ok = true
		if float64(r.AllocsPerOp) > float64(b.AllocsPerOp)*tolerance {
			ok = false
			regressions = append(regressions, fmt.Sprintf(
				"%s: allocs/op %d > baseline %d x %.2f", r.Name, r.AllocsPerOp, b.AllocsPerOp, tolerance))
		}
		if b.BytesPerOp >= bytesFloor && float64(r.BytesPerOp) > float64(b.BytesPerOp)*tolerance {
			ok = false
			regressions = append(regressions, fmt.Sprintf(
				"%s: bytes/op %d > baseline %d x %.2f", r.Name, r.BytesPerOp, b.BytesPerOp, tolerance))
		}
		if ok {
			fmt.Fprintf(out, "check: %s ok (%d allocs/op, %d B/op; baseline %d, %d)\n",
				r.Name, r.AllocsPerOp, r.BytesPerOp, b.AllocsPerOp, b.BytesPerOp)
		}
	}
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintln(out, "REGRESSION:", r)
		}
		return fmt.Errorf("%d allocation regression(s) vs %s", len(regressions), baselinePath)
	}
	return nil
}

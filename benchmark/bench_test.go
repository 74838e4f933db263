package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"bgpsim"
)

func workloadNames() []string {
	var names []string
	for _, d := range workloadDefs {
		names = append(names, d.name)
	}
	return names
}

// TestSmoke drives every workload through both kinds of run on toy
// worlds: the untraced timed regions and the traced run with its
// decomposed twin, probes and span file. Every path of the harness runs;
// nothing is measured.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				cfg := runConfig{workload: name, seed: 7, trace: trace, scale: smokeScale, log: io.Discard}
				defs := endToEndMetrics
				if trace {
					cfg.spans = filepath.Join(t.TempDir(), "spans.json")
					defs = perLayerMetrics
				}
				res, err := runOne(cfg)
				if err != nil {
					t.Fatalf("trace=%v: %v", trace, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
					t.Errorf("trace=%v: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("trace=%v: %d metrics reported, table has %d", trace, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("trace=%v: %s not reported", trace, d.name)
					case m.Unit != d.unit:
						t.Errorf("%s: unit %q, table says %q", d.name, m.Unit, d.unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s = %v", d.name, m.Value)
					case !trace && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, must never be 0", d.name, m.Value)
					}
				}
				if !trace {
					continue
				}
				// The metrics a workload's own layers feed must have read something.
				want := []string{"topology.build_ms", "bgp.window_updates", "bgp.window_messages", "metrics.sim_delay_s",
					"snapshot.compute_ms", "des.hold_ns_per_event_n64", "des.hold_ns_per_event_n4096", "des.drain_ns_per_event_dense", "proc.wall_s", "proc.peak_rss_mb"}
				switch name {
				case "churn-mixed":
					want = append(want, "churn.windows", "churn.expand_ms", "churn.trial_s_p50", "churn.window_us_p50", "churn.window_us_p99")
				default:
					want = append(want, "bgp.new_ms", "bgp.converge_initial_s", "bgp.storm_s", "bgp.total_updates", "bgp.path_registered", "failure.select_us", "experiment.topo_cache_hit_ns")
				}
				switch name {
				case "fig3-paper":
					want = append(want, "experiment.cells", "experiment.cell_ms_p50", "experiment.cell_ms_max")
				case "dist-sweep":
					want = append(want, "dist.jobs", "dist.lease_us_p50", "dist.complete_us_p95", "dist.handler_busy_s", "dist.bytes_per_job")
				}
				for _, n := range want {
					if res.Metrics[n].Value <= 0 {
						t.Errorf("%s = %v on %s, want > 0", n, res.Metrics[n].Value, name)
					}
				}
				var spans []span
				data, err := os.ReadFile(cfg.spans)
				if err != nil {
					t.Fatal(err)
				}
				if err := json.Unmarshal(data, &spans); err != nil || len(spans) == 0 {
					t.Fatalf("span file: %d spans, err %v", len(spans), err)
				}
				for i, s := range spans {
					if s.Name == "" || s.End < s.Start || s.Parent >= i {
						t.Fatalf("span %d malformed: %+v", i, s)
					}
				}
			}
		})
	}
}

// TestOutputMismatchFails pins the guard the decomposed paths rely on: a
// pass whose output differs from the run's first pass is a failed
// operation, not a silently different measurement.
func TestOutputMismatchFails(t *testing.T) {
	r := &run{cfg: runConfig{workload: "x", log: io.Discard}}
	step := func(out string) bool {
		_, _, ok := r.timedPass("p", func() (pass, error) { return pass{output: out, ops: 3}, nil })
		return ok
	}
	if !step("fig A") || !step("fig A") {
		t.Fatal("identical outputs rejected")
	}
	if step("fig B") {
		t.Error("a pass with different output was accepted")
	}
	if r.res.Attempted != 12 || r.res.Failed != 1 {
		t.Errorf("attempted %d failed %d, want 12 and 1", r.res.Attempted, r.res.Failed)
	}
}

// TestDecomposedTrialMatchesRun checks the replica of the one-call path
// on seeds the smoke run does not use.
func TestDecomposedTrialMatchesRun(t *testing.T) {
	for seed := int64(100); seed < 104; seed++ {
		w, err := newWorkload("trial500", seed, smokeScale)
		if err != nil {
			t.Fatal(err)
		}
		a, err := w.run(nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.reference(newTracer())
		if err != nil {
			t.Fatal(err)
		}
		if a.output != b.output {
			t.Errorf("seed %d: decomposed trial differs from bgpsim.Run:\n%s\n%s", seed, b.output, a.output)
		}
		if a.counts.windowUpdates != b.counts.windowUpdates || b.counts.totalUpdates <= b.counts.windowUpdates {
			t.Errorf("seed %d: counts %+v vs %+v", seed, a.counts, b.counts)
		}
	}
}

// TestPaperScaleWorldsAreMemoized builds every workload's worlds at the
// size the benchmark reports and checks that the topology memo then serves
// all of them, so that no timed region pays for generation. The memo is
// process-wide and insert-only, so each workload is checked in a fresh
// process, as a run has it: this test run again with memoEnv set.
func TestPaperScaleWorldsAreMemoized(t *testing.T) {
	const memoEnv = "BENCHMARK_MEMO_WORKLOAD"
	if name := os.Getenv(memoEnv); name != "" {
		w, err := newWorkload(name, 1, paperScale)
		if err != nil {
			t.Fatal(err)
		}
		for _, wd := range w.worlds {
			if err := buildWorld(wd, true); err != nil {
				t.Fatal(err)
			}
		}
		if err := checkHeld(w.worlds); err != nil {
			t.Error(err)
		}
		return
	}
	for _, name := range workloadNames() {
		cmd := exec.Command(os.Args[0], "-test.run=^TestPaperScaleWorldsAreMemoized$")
		cmd.Env = append(os.Environ(), memoEnv+"="+name)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Errorf("%s: %v\n%s", name, err, out)
		}
	}
}

// TestCheckHeldCatchesOverflow fills the memo past its cap and checks that
// a world it turned away is reported.
func TestCheckHeldCatchesOverflow(t *testing.T) {
	const memoEnv = "BENCHMARK_MEMO_OVERFLOW"
	if os.Getenv(memoEnv) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestCheckHeldCatchesOverflow$")
		cmd.Env = append(os.Environ(), memoEnv+"=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Errorf("%v\n%s", err, out)
		}
		return
	}
	var worlds []world
	for seed := int64(0); seed < 300; seed++ {
		worlds = append(worlds, world{bgpsim.Skewed7030(20), seed})
		if err := buildWorld(worlds[seed], true); err != nil {
			t.Fatal(err)
		}
	}
	if err := checkHeld(worlds[:200]); err != nil {
		t.Errorf("the first 200 worlds fit the memo: %v", err)
	}
	if err := checkHeld(worlds); err == nil {
		t.Error("300 distinct worlds cannot all be held by the memo, yet checkHeld passed")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesProgram checks that BENCHMARK.json and the
// program name the same workloads and metrics, both ways, and that the
// file stays inside the contract's limits.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", specPath))
	if err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths %v", spec.Paths)
	}
	if len(spec.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloadDefs))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for i, d := range workloadDefs {
		name(d.name)
		if got := spec.Workloads[i]; got.Name != d.name || got.Why != d.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
		if len(d.why) > 200 || strings.Contains(d.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", d.name, len(d.why))
		}
	}
	match := func(kind string, got []specMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			name(d.name)
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]", kind, i, g.Name, g.Unit, d.name, d.unit)
			}
			if !unitRE.MatchString(g.Unit) || (g.Better != "lower" && g.Better != "higher") {
				t.Errorf("%s: unit %q better %q", g.Name, g.Unit, g.Better)
			}
			if bounded != (g.Bound > 0) || g.Bound > 0.25 {
				t.Errorf("%s: bound %v", g.Name, g.Bound)
			}
		}
	}
	match("end_to_end", spec.EndToEnd, endToEndMetrics, true)
	match("per_layer", spec.PerLayer, perLayerMetrics, false)
	if s := spec.EndToEnd[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower is better: %+v", s)
	}
}

// TestPrintedNamesAreDeclared checks that every metric and workload name
// the program prints (a run's metric lines, the set report, the -compare
// rows) is declared in BENCHMARK.json.
func TestPrintedNamesAreDeclared(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", specPath))
	if err != nil {
		t.Fatal(err)
	}
	metrics, workloads := map[string]bool{}, map[string]bool{}
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		metrics[m.Name] = true
	}
	for _, wl := range spec.Workloads {
		workloads[wl.Name] = true
	}
	set := &setFile{}
	for _, d := range perLayerMetrics {
		if d.exact {
			set.Exact = append(set.Exact, d.name)
		}
	}
	var out bytes.Buffer
	for _, def := range workloadDefs {
		for trace, defs := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
			res := runResult{Correct: true, Attempted: 3, Metrics: map[string]metricValue{}}
			for i, d := range defs {
				res.Metrics[d.name] = metricValue{Value: float64(i + 1), Unit: d.unit}
			}
			set.Runs = append(set.Runs, setRun{Workload: def.name, Seed: 1, Trace: trace, runResult: res})
			printMetrics(&out, def.name, res)
		}
	}
	set.report(&out)
	if compareSets(&out, spec, set, set) {
		t.Errorf("a set compared with itself regressed:\n%s", out.String())
	}
	rows := 0
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || !workloads[f[0]] || f[1] == "attempted" || f[1] == "seed" {
			continue
		}
		rows++
		if !metrics[f[1]] {
			t.Errorf("printed metric %q is not in BENCHMARK.json: %s", f[1], line)
		}
	}
	// Per workload: a run's lines and the report name every metric once,
	// -compare every end-to-end metric and every per-layer one that is not exact.
	if want := len(workloadDefs) * (3*len(metrics) - len(set.Exact)); rows != want {
		t.Errorf("%d metric rows printed, want %d:\n%s", rows, want, out.String())
	}
}

// TestMainPrintsResultObjectLast runs the command line the contract
// uses and checks the shape of its last line.
func TestMainPrintsResultObjectLast(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := mainCode([]string{"--workload", "prefix50", "--seed", "3", "--seconds", "0", "--trace", "0", "-smoke"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var obj map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &obj); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := obj[k]; !ok {
			t.Errorf("result object lacks %q", k)
		}
	}
	if len(obj) != 4 {
		t.Errorf("result object has %d keys, want exactly 4", len(obj))
	}
	out.Reset()
	if code := mainCode([]string{"-workload", "nope"}, &out, &errOut); code == 0 || strings.Contains(out.String(), `"metrics"`) {
		t.Errorf("unknown workload: exit %d, output %q", code, out.String())
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(vs, n=4) == [10.75, 11.5, 12.25]; median 11.5
	vs := []float64{10, 12, 11, 13, 12, 11, 10, 14, 12, 11}
	if got, want := quartileSpread(vs), 1.5/11.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

// TestCompareVerdicts feeds compareSets hand-made sets and checks each
// verdict the issue asks for.
func TestCompareVerdicts(t *testing.T) {
	spec := &benchSpec{
		Workloads: []specItem{{Name: "w"}},
		EndToEnd: []specMetric{
			{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.10},
			{Name: "cost", Unit: "us", Better: "lower", Bound: 0.10},
		},
	}
	mk := func(rate, cost []float64, failed int, count float64) *setFile {
		s := &setFile{Exact: []string{"n"}}
		for i := range rate {
			s.Runs = append(s.Runs, setRun{Workload: "w", Seed: int64(i), runResult: runResult{Attempted: 10, Failed: failed,
				Metrics: map[string]metricValue{"rate": {Value: rate[i]}, "cost": {Value: cost[i]}}}})
		}
		s.Runs = append(s.Runs, setRun{Workload: "w", Seed: 0, Trace: 1, runResult: runResult{Attempted: 1, Metrics: map[string]metricValue{"n": {Value: count}}}})
		return s
	}
	steady := []float64{100, 101, 99, 100, 102}
	noisy := []float64{100, 130, 80, 100, 120}
	for _, tc := range []struct {
		name      string
		a, b      *setFile
		regressed bool
		want      []string
	}{
		{"same", mk(steady, steady, 0, 5), mk(steady, steady, 0, 5), false, []string{"unchanged", "every exact count is identical"}},
		{"slower", mk(steady, steady, 0, 5), mk([]float64{80, 81, 79, 80, 82}, steady, 0, 5), true, []string{"REGRESSED"}},
		{"faster", mk(steady, steady, 0, 5), mk([]float64{150, 151, 149, 150, 152}, steady, 0, 5), false, []string{"improved"}},
		{"noisy", mk(steady, noisy, 0, 5), mk(steady, steady, 0, 5), false, []string{"unresolved"}},
		{"noisy but apart", mk(steady, noisy, 0, 5), mk(steady, []float64{70, 71, 72, 73, 74}, 0, 5), false, []string{"improved"}},
		{"failures", mk(steady, steady, 0, 5), mk(steady, steady, 1, 5), true, []string{"fail_share"}},
		{"model changed", mk(steady, steady, 0, 5), mk(steady, steady, 0, 6), true, []string{"exact count n moved: 5 -> 6"}},
	} {
		var out bytes.Buffer
		if got := compareSets(&out, spec, tc.a, tc.b); got != tc.regressed {
			t.Errorf("%s: regressed = %v, want %v\n%s", tc.name, got, tc.regressed, out.String())
		}
		for _, w := range tc.want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("%s: output lacks %q:\n%s", tc.name, w, out.String())
			}
		}
		if tc.name == "noisy" && strings.Count(out.String(), "unresolved") != 1 {
			t.Errorf("noisy: only the cost row is unresolved:\n%s", out.String())
		}
	}
}

// TestPairedRow checks the ungated per-layer rows of -compare: the
// direction comes from the metric's "better" in BENCHMARK.json, fewer than
// five pairs make no call, and a metric that reads 0 throughout has no row.
func TestPairedRow(t *testing.T) {
	a := []float64{100, 101, 99, 100, 102}
	b := []float64{120, 121, 119, 120, 122}
	row := func(better string, va, vb []float64) string {
		var out bytes.Buffer
		pairedRow(&out, "w", specMetric{Name: "m", Better: better}, va, vb)
		return out.String()
	}
	for _, tc := range []struct {
		better string
		va, vb []float64
		want   string
	}{
		{"higher", a, b, "B wins 5 of 5 pairs: B better"},
		{"lower", a, b, "B wins 0 of 5 pairs: B worse"},
		{"higher", a[:4], b[:4], "B wins 4 of 4 pairs: no call"},
		{"higher", a, a, "B wins 0 of 5 pairs: no call"},
	} {
		if got := row(tc.better, tc.va, tc.vb); !strings.Contains(got, tc.want) {
			t.Errorf("better=%s: row %q lacks %q", tc.better, got, tc.want)
		}
	}
	if got := row("lower", make([]float64, 5), make([]float64, 5)); got != "" {
		t.Errorf("a metric that is 0 on every run got a row: %q", got)
	}
}

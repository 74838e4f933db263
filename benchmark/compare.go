package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"bgpsim/internal/stats"
)

// benchSpec is BENCHMARK.json: the bounds and directions live there and
// nowhere else.
type benchSpec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specItem   `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specItem struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// specPath is relative to the repository root, the working directory of
// every documented way of running the benchmark.
const specPath = "BENCHMARK.json"

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w (run from the repository root)", err)
	}
	var spec benchSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	return compareSets(w, spec, a, b), nil
}

// separated reports whether every run of one side reads better than
// every run of the other.
func separated(a, b []float64) bool {
	return stats.Max(a) < stats.Min(b) || stats.Max(b) < stats.Min(a)
}

// compareSets applies the BENCHMARK.json bounds to B against A, one row
// per workload and end-to-end metric, and reports whether B regressed:
// a median worse than A's by more than the bound, a higher fail share,
// or an exact count that moved. A difference inside the bound reads
// "unchanged" only when both sides' own quartile spreads are inside the
// bound too, or the sides do not overlap at all; otherwise it is
// "unresolved". The per-layer metrics that are not exact counts follow as
// ungated rows (pairedRow).
func compareSets(w io.Writer, spec *benchSpec, a, b *setFile) (regressed bool) {
	fmt.Fprintf(w, "A: %s (commit %s, %d seeds)\nB: %s (commit %s, %d seeds)\n", a.Env.Binary, a.Env.Commit, a.Env.Seeds, b.Env.Binary, b.Env.Commit, b.Env.Seeds)
	if !a.Env.Paired || !b.Env.Paired {
		fmt.Fprintln(w, "these sets were not made as pairs (-pairs): in the ungated per-layer rows, drift of the host between the two sets reads as a difference")
	}
	fmt.Fprintf(w, "%-12s %-30s %14s %14s %8s %7s %7s %6s  %s\n", "workload", "metric", "median A", "median B", "change", "iqr A", "iqr B", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a.values(wl.Name, 0, m.Name), b.values(wl.Name, 0, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-12s %-30s missing from a side: REGRESSED\n", wl.Name, m.Name)
				regressed = true
				continue
			}
			ma, mb := stats.Median(va), stats.Median(vb)
			change := ratio(mb-ma, ma)
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			sa, sb := quartileSpread(va), quartileSpread(vb)
			resolved := (sa <= m.Bound && sb <= m.Bound) || separated(va, vb)
			verdict := "unchanged"
			switch {
			case worse > m.Bound:
				verdict, regressed = "REGRESSED", true
			case !resolved:
				verdict = "unresolved"
			case worse < -m.Bound:
				verdict = "improved"
			}
			fmt.Fprintf(w, "%-12s %-30s %14.6g %14.6g %+7.1f%% %6.1f%% %6.1f%% %5.0f%%  %s\n",
				wl.Name, m.Name, ma, mb, change*100, sa*100, sb*100, m.Bound*100, verdict)
		}
		for _, m := range spec.PerLayer {
			if !slices.Contains(a.Exact, m.Name) {
				pairedRow(w, wl.Name, m, a.values(wl.Name, 1, m.Name), b.values(wl.Name, 1, m.Name))
			}
		}
		if fa, fb := a.failShare(wl.Name), b.failShare(wl.Name); fb > fa {
			fmt.Fprintf(w, "%-12s %-30s %14.6g %14.6g  REGRESSED: any increase is a regression\n", wl.Name, "proc.fail_share", fa, fb)
			regressed = true
		}
	}

	// Exact counts are the simulator's own: for one seed they repeat to
	// the last digit, so any difference means the model changed.
	moved := 0
	for _, ra := range a.Runs {
		for _, rb := range b.Runs {
			if ra.Trace != 1 || rb.Trace != 1 || ra.Workload != rb.Workload || ra.Seed != rb.Seed {
				continue
			}
			for _, name := range a.Exact {
				if x, y := ra.Metrics[name].Value, rb.Metrics[name].Value; x != y {
					fmt.Fprintf(w, "%-12s seed %d: exact count %s moved: %v -> %v\n", ra.Workload, ra.Seed, name, x, y)
					moved++
				}
			}
		}
	}
	if moved > 0 {
		fmt.Fprintf(w, "%d exact counts moved: the model changed, so rates are not comparable: REGRESSED\n", moved)
		regressed = true
	} else {
		fmt.Fprintln(w, "every exact count is identical")
	}
	return regressed
}

// pairedRow prints one per-layer metric of the traced runs, host-time
// rates among them. Per-layer metrics have no bound (the host's speed
// drifts by more than any sensible one), so the row never decides the
// exit status. It is judged the way a noisy sandbox allows: run i of A and
// run i of B share a seed and, under -pairs, were made back to back, so
// B's share of pairs won is reported, and a difference is called only when
// there are at least five pairs, B wins or loses nine in ten of them, and
// the medians differ by more than A's own quartile spread. A metric the
// workload does not exercise reads 0 on every run and gets no row.
func pairedRow(w io.Writer, workload string, m specMetric, va, vb []float64) {
	both := append(append([]float64(nil), va...), vb...)
	if len(va) == 0 || len(vb) == 0 || (stats.Min(both) == 0 && stats.Max(both) == 0) {
		return
	}
	ma, mb := stats.Median(va), stats.Median(vb)
	verdict := "ungated"
	if len(va) == len(vb) {
		wins, losses := 0, 0
		for i := range va {
			switch better := vb[i] > va[i] == (m.Better == "higher"); {
			case vb[i] == va[i]:
			case better:
				wins++
			default:
				losses++
			}
		}
		call := "no call"
		if beyond := len(va) >= 5 && math.Abs(mb-ma) > quartileSpread(va)*math.Abs(ma); beyond && float64(wins) >= 0.9*float64(len(va)) {
			call = "B better"
		} else if beyond && float64(losses) >= 0.9*float64(len(va)) {
			call = "B worse"
		}
		verdict = fmt.Sprintf("ungated: B wins %d of %d pairs: %s", wins, len(va), call)
	}
	fmt.Fprintf(w, "%-12s %-30s %14.6g %14.6g %+7.1f%% %6.1f%% %6.1f%% %6s  %s\n",
		workload, m.Name, ma, mb, ratio(mb-ma, ma)*100, quartileSpread(va)*100, quartileSpread(vb)*100, "-", verdict)
}

package main

import (
	"bytes"
	"debug/buildinfo"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"bgpsim/internal/stats"
)

// setFile is what -set writes and -compare reads: every run of one
// commit, with enough about the host to tell two sets apart. Struct
// fields are marshalled in declaration order and map keys sorted, so the
// same runs always produce the same bytes.
type setFile struct {
	Env   setEnv   `json:"env"`
	Exact []string `json:"exact"` // metrics -compare demands equality on
	Runs  []setRun `json:"runs"`
}

type setEnv struct {
	Binary     string  `json:"binary"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seeds      int     `json:"seeds"` // untraced and traced runs per workload (R)
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke"`
	// Paired is set when the set was made under -pairs: each of its runs
	// back to back with the same run of the other binary.
	Paired bool `json:"paired"`
}

type setRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	// Seconds is the whole process, start to exit: what one run costs
	// against the contract's time cap.
	Seconds float64 `json:"process_seconds"`
	runResult
}

// values returns metric over the set's runs of one workload and mode, in
// run order.
func (s *setFile) values(workload string, trace int, metric string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == trace {
			out = append(out, m.Value)
		}
	}
	return out
}

// failShare is failed over attempted operations across every run of one
// workload.
func (s *setFile) failShare(workload string) float64 {
	attempted, failed := 0, 0
	for _, r := range s.Runs {
		if r.Workload == workload {
			attempted, failed = attempted+r.Attempted, failed+r.Failed
		}
	}
	return ratio(float64(failed), float64(attempted))
}

func readSet(path string) (*setFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s setFile
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *setFile) write(path string) error {
	data, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// otherSuffix is appended to the -set path for the other binary's runs
// under -pairs.
const otherSuffix = ".other"

// commitOf is the VCS revision go build stamped into the binary at path.
// go run and -buildvcs=false (benchmark/run.sh) stamp none; for this
// binary, which those build from the working directory's sources, the
// checkout's HEAD stands in.
func commitOf(path string, self bool) string {
	if info, err := buildinfo.ReadFile(path); err == nil {
		for _, kv := range info.Settings {
			if kv.Key == "vcs.revision" {
				return kv.Value
			}
		}
	}
	if self {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	return "unknown"
}

// allConfig is an invocation without -workload: every workload, each in
// a process of its own, exactly as the benchmark contract runs them.
type allConfig struct {
	seed    int64
	seeds   int
	seconds float64
	smoke   bool
	set     string // file for this binary's runs; the second binary's go to set+otherSuffix
	other   string // second binary for paired runs
}

// child runs one workload once in a fresh process of bin and parses the
// result object it prints last.
func child(bin string, cfg allConfig, workload string, seed int64, trace int) (setRun, error) {
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace)}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	out, err := cmd.Output()
	if err != nil {
		return setRun{}, fmt.Errorf("%s %v: %w", bin, args, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	run := setRun{Workload: workload, Seed: seed, Trace: trace, Seconds: time.Since(t0).Seconds()}
	if err := json.Unmarshal(lines[len(lines)-1], &run.runResult); err != nil {
		return setRun{}, fmt.Errorf("%s %v: last line is not a result object: %w", bin, args, err)
	}
	return run, nil
}

// runAll makes cfg.seeds untraced and as many traced runs of every
// workload, prints every metric, and optionally keeps the set. Runs are
// interleaved across workloads (A B C D E, A B C D E, ...) so slow drift
// of the host lands on all of them alike. With a second binary every run
// is made by both, alternating which goes first, and the two sets are
// compared; the result reports whether this binary regressed.
func runAll(w io.Writer, cfg allConfig) (regressed bool, err error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	if cfg.seeds < 1 {
		return false, fmt.Errorf("-seeds %d: need at least one", cfg.seeds)
	}
	bins := []string{self}
	if cfg.other != "" {
		bins = []string{cfg.other, self} // A = the other commit, B = this one
	}
	sets := make([]*setFile, len(bins))
	for i, bin := range bins {
		sets[i] = &setFile{Env: setEnv{
			Binary: bin, Commit: commitOf(bin, bin == self), GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			Seed: cfg.seed, Seeds: cfg.seeds, Seconds: cfg.seconds, Smoke: cfg.smoke, Paired: len(bins) == 2,
		}}
		for _, d := range perLayerMetrics {
			if d.exact {
				sets[i].Exact = append(sets[i].Exact, d.name)
			}
		}
	}

	turn := 0
	each := func(workload string, seed int64, trace int) error {
		for k := range bins {
			side := (k + turn) % len(bins) // alternate which side goes first
			run, err := child(bins[side], cfg, workload, seed, trace)
			if err != nil {
				return err
			}
			sets[side].Runs = append(sets[side].Runs, run)
			fmt.Fprintf(w, "ran %-12s seed %-4d trace %d side %d: attempted %d, failed %d, %.1f s\n", workload, seed, trace, side, run.Attempted, run.Failed, run.Seconds)
		}
		turn++
		return nil
	}
	for i := 0; i < cfg.seeds; i++ {
		for trace := 0; trace <= 1; trace++ {
			for _, def := range workloadDefs {
				if err := each(def.name, cfg.seed+int64(i), trace); err != nil {
					return false, err
				}
			}
		}
	}

	for i, s := range sets {
		fmt.Fprintf(w, "\n== %s\n", s.Env.Binary)
		s.report(w)
		if cfg.set != "" {
			path := cfg.set
			if len(sets) == 2 && i == 0 {
				path += otherSuffix
			}
			if err := s.write(path); err != nil {
				return false, err
			}
		}
	}
	if len(sets) == 2 {
		spec, err := readSpec(specPath)
		if err != nil {
			return false, err
		}
		fmt.Fprintln(w)
		return compareSets(w, spec, sets[0], sets[1]), nil
	}
	for _, r := range sets[0].Runs {
		if !r.Correct {
			return true, nil
		}
	}
	return false, nil
}

// report prints every metric of the set by name with its unit, as median,
// range, run count and quartile spread: the end-to-end ones over the
// untraced runs, the per-layer ones over the traced runs.
func (s *setFile) report(w io.Writer) {
	for _, def := range workloadDefs {
		fmt.Fprintf(w, "%-12s %-30s %16.6f ratio\n", def.name, "proc.fail_share", s.failShare(def.name))
		for trace, defs := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
			for _, d := range defs {
				vs := s.values(def.name, trace, d.name)
				if len(vs) == 0 || d.name == "proc.fail_share" {
					continue
				}
				fmt.Fprintf(w, "%-12s %-30s %16.6f %-5s  min %.6f  max %.6f  n %d  quartile spread %.1f%%\n",
					def.name, d.name, stats.Median(vs), d.unit, stats.Min(vs), stats.Max(vs), len(vs), quartileSpread(vs)*100)
			}
		}
	}
}

package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"bgpsim/internal/stats"
)

// metricValue and runResult are the object a run prints as its last line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runConfig is one invocation: one workload, one seed, traced or not.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64 // how long the untraced timed regions go on for
	trace    bool
	scale    scale
	spans    string    // with trace: file the spans are written to when the run ends ("" = keep in memory only)
	log      io.Writer // progress and failures, one line each
}

// Set-up is repeated so its median can be reported: at least
// setupMinRounds times, and until the rounds add up to the scale's
// setupSeconds (a world of 120 nodes builds in a tenth of a millisecond,
// and the host's speed wanders from one tenth of a second to the next),
// but never more than setupMaxRounds. The collector is run between
// rounds, off the clock, once per setupGCSeconds of set-up work, so that
// it does not start inside a round; running it before every round would
// leave sub-millisecond rounds measuring cold caches (quartile spread of
// the reported median 16% instead of 4%).
const (
	setupMinRounds = 5
	setupMaxRounds = 3000
	setupGCSeconds = 0.002
)

// run holds the state of one invocation.
type run struct {
	cfg runConfig
	w   *workload
	res runResult

	setupSeconds []float64 // one entry per set-up round
	buildSeconds []float64 // one entry per world built
	want         string    // the output every pass must reproduce
	haveWant     bool
}

// setUp builds the workload from the seed, generates its worlds and
// starts its services: everything that happens before the first timed
// region. Only the last round goes through the topology memo and keeps
// its services; the others do the same work and discard it. It fails if
// the memo then does not hold every world, because the timed regions would
// pay for generating the rest.
func (r *run) setUp() error {
	total, sinceGC := 0.0, setupGCSeconds
	for round := 1; ; round++ {
		last := round >= setupMaxRounds || (round >= setupMinRounds && total >= r.cfg.scale.setupSeconds)
		if sinceGC >= setupGCSeconds {
			runtime.GC()
			sinceGC = 0
		}
		t0 := time.Now()
		w, err := newWorkload(r.cfg.workload, r.cfg.seed, r.cfg.scale)
		if err != nil {
			return err
		}
		for _, wd := range w.worlds {
			b0 := time.Now()
			if err := buildWorld(wd, last); err != nil {
				return fmt.Errorf("build world %+v: %w", wd, err)
			}
			r.buildSeconds = append(r.buildSeconds, time.Since(b0).Seconds())
		}
		if w.start != nil {
			if err := w.start(); err != nil {
				return err
			}
		}
		dt := time.Since(t0).Seconds()
		r.setupSeconds = append(r.setupSeconds, dt)
		total, sinceGC = total+dt, sinceGC+dt
		if last {
			r.w = w
			return checkHeld(w.worlds)
		}
		if w.stop != nil {
			w.stop()
		}
	}
}

// timedPass runs one execution of the unit as a timed region, counts its
// operations and its output check, and reports whether it can be used.
func (r *run) timedPass(label string, fn func() (pass, error)) (pass, region, bool) {
	var p pass
	reg, err := timed(func() (err error) { p, err = fn(); return err })
	r.res.Attempted += p.ops + 1 // the operations, and the check of their output
	r.res.Failed += p.failed
	switch {
	case err != nil:
		if p.failed == 0 {
			r.res.Failed++
		}
		fmt.Fprintf(r.cfg.log, "%s %s: FAILED: %v\n", r.cfg.workload, label, err)
		return p, reg, false
	case !r.haveWant:
		r.want, r.haveWant = p.output, true
	case p.output != r.want:
		r.res.Failed++
		fmt.Fprintf(r.cfg.log, "%s %s: FAILED: output differs from the first pass of this run\n--- got ---\n%s--- want ---\n%s", r.cfg.workload, label, p.output, r.want)
		return p, reg, false
	}
	fmt.Fprintf(r.cfg.log, "%s %s: %.3f s wall, %.3f s cpu, %.1f MB allocated\n", r.cfg.workload, label, reg.wall, reg.cpu, reg.allocBytes/1e6)
	return p, reg, true
}

// runOne executes one invocation and returns the object to print. An
// operation that fails is counted and leaves Correct false; an error is
// returned only when no result can be produced at all.
func runOne(cfg runConfig) (runResult, error) {
	r := &run{cfg: cfg, res: runResult{Metrics: map[string]metricValue{}}}
	if err := r.setUp(); err != nil {
		return runResult{}, err
	}
	if r.w.stop != nil {
		defer r.w.stop()
	}
	var err error
	if cfg.trace {
		err = r.traced()
	} else {
		err = r.untraced()
	}
	if err != nil {
		return runResult{}, err
	}
	r.res.Correct = r.res.Failed == 0
	return r.res, nil
}

func (r *run) set(defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		r.res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	for name := range values {
		if _, ok := r.res.Metrics[name]; !ok {
			panic("benchmark: metric " + name + " is not in the metric table")
		}
	}
}

// untraced measures the end-to-end metrics: the unit through the public
// one-call path, again and again until cfg.seconds have gone by.
func (r *run) untraced() error {
	w := r.w
	updates := 0.0
	if w.needsReference {
		ref, _, ok := r.timedPass("reference", func() (pass, error) { return w.reference(nil) })
		if !ok {
			return fmt.Errorf("%s: the reference pass failed, so there is no update count to measure against", w.name)
		}
		updates = float64(ref.counts.windowUpdates)
	}
	var alloc []float64
	elapsed := 0.0
	for rep := 1; rep <= r.cfg.scale.minReps || elapsed < r.cfg.seconds; rep++ {
		p, reg, ok := r.timedPass(fmt.Sprintf("rep %d", rep), func() (pass, error) { return w.run(nil) })
		elapsed += reg.wall
		if !ok {
			continue
		}
		if !w.needsReference {
			updates = float64(p.counts.windowUpdates)
		}
		if updates <= 0 {
			return fmt.Errorf("%s: no update was processed in a measurement window", w.name)
		}
		alloc = append(alloc, reg.allocBytes/updates)
	}
	if len(alloc) == 0 {
		return fmt.Errorf("%s: every timed region failed", w.name)
	}
	r.set(endToEndMetrics, map[string]float64{
		"setup_s":                stats.Median(r.setupSeconds),
		"alloc_bytes_per_update": stats.Median(alloc),
	})
	return nil
}

// traced measures the per-layer metrics: the unit through the one-call
// path with tracing off, then once through its traced twin, and the
// standalone probes. The two must compute the same bytes. The untraced
// pass is repeated for half of cfg.seconds and the region of median wall
// time kept, so that the proc.* metrics are not one region's luck.
func (r *run) traced() error {
	w := r.w
	tr := newTracer()
	var bases []region
	for elapsed := 0.0; len(bases) == 0 || elapsed < r.cfg.seconds/2; {
		_, reg, ok := r.timedPass("untraced", func() (pass, error) { return w.run(nil) })
		if !ok {
			return fmt.Errorf("%s: the untraced pass failed", w.name)
		}
		bases = append(bases, reg)
		elapsed += reg.wall
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i].wall < bases[j].wall })
	base := bases[(len(bases)-1)/2]
	ref, twin, ok := r.timedPass("decomposed", func() (pass, error) { return w.reference(tr) })
	if !ok {
		return fmt.Errorf("%s: the decomposed pass failed or disagrees with the one-call path", w.name)
	}
	if w.instrumented {
		if _, twin, ok = r.timedPass("instrumented", func() (pass, error) { return w.run(tr) }); !ok {
			return fmt.Errorf("%s: the instrumented pass failed or disagrees with the untraced one", w.name)
		}
	}
	c := ref.counts
	updates := float64(c.windowUpdates)
	if updates <= 0 {
		return fmt.Errorf("%s: no update was processed in a measurement window", w.name)
	}

	m := map[string]float64{}
	ms := func(name string) []float64 { return tr.seconds(name) }
	m["topology.build_ms"] = stats.Median(r.buildSeconds) * 1e3
	m["failure.select_us"] = stats.Median(ms("failure.select")) * 1e6
	m["bgp.new_ms"] = stats.Median(ms("bgp.new")) * 1e3
	m["bgp.converge_initial_s"] = sum(ms("bgp.converge_initial"))
	if c.totalUpdates > c.windowUpdates { // only the decomposed trial sees updates outside the window
		m["bgp.setup_ns_per_update"] = sum(ms("bgp.converge_initial")) * 1e9 / float64(c.totalUpdates-c.windowUpdates)
	}
	m["bgp.storm_s"] = sum(ms("bgp.storm"))
	m["bgp.storm_ns_per_update"] = ratio(sum(ms("bgp.storm"))*1e9, updates)
	m["bgp.window_updates"] = updates
	m["bgp.total_updates"] = float64(c.totalUpdates)
	m["bgp.window_messages"] = float64(c.messages)
	m["bgp.window_discarded"] = float64(c.discarded)
	m["bgp.route_changes"] = float64(c.routeChanges)
	m["bgp.max_queue_len"] = float64(c.maxQueue)
	m["bgp.path_registered"] = float64(c.pathReg)
	m["bgp.path_live"] = float64(c.pathLive)
	m["bgp.path_compactions"] = float64(c.compactions)
	m["bgp.route_change_ratio"] = ratio(float64(c.routeChanges), updates)
	m["bgp.discard_ratio"] = ratio(float64(c.discarded), float64(c.windowUpdates+c.discarded))
	m["metrics.sim_delay_s"] = ratio(c.simDelay, float64(c.windows))
	m["metrics.sim_messages"] = ratio(float64(c.messages), float64(c.windows))

	var err error
	var rounds int
	if m["snapshot.compute_ms"], rounds, err = snapshotProbe(w.worlds[0]); err != nil {
		return fmt.Errorf("snapshot probe: %w", err)
	}
	m["snapshot.rounds"] = float64(rounds)
	if m["des.hold_ns_per_event_n64"], err = desHold(64, r.cfg.scale.probeRounds); err != nil {
		return fmt.Errorf("des probe: %w", err)
	}
	if m["des.hold_ns_per_event_n4096"], err = desHold(4096, r.cfg.scale.probeRounds); err != nil {
		return fmt.Errorf("des probe: %w", err)
	}
	if m["des.drain_ns_per_event_dense"], err = desDrainDense(r.cfg.scale.probeRounds); err != nil {
		return fmt.Errorf("des probe: %w", err)
	}

	cells := ms("experiment.cell")
	m["experiment.cells"] = float64(len(cells))
	m["experiment.cell_ms_p50"] = stats.Median(cells) * 1e3
	m["experiment.cell_ms_max"] = stats.Max(cells) * 1e3
	m["experiment.topo_cache_hit_ns"] = stats.Median(ms("experiment.topo_cache")) * 1e9

	if trials := ms("churn.trial"); len(trials) > 0 {
		wins := ms("churn.window")
		m["churn.windows"] = float64(c.windows)
		m["churn.windows_per_s"] = float64(c.windows) / base.wall
		m["churn.trial_s_p50"] = stats.Median(trials)
		m["churn.window_us_p50"] = stats.Median(wins) * 1e6
		m["churn.window_us_p99"] = stats.Percentile(wins, 99) * 1e6
	}
	if jobs := float64(len(ms("dist.complete"))); jobs > 0 {
		m["dist.jobs"] = jobs
		m["dist.lease_us_p50"] = stats.Median(ms("dist.lease")) * 1e6
		m["dist.lease_us_p95"] = stats.Percentile(ms("dist.lease"), 95) * 1e6
		m["dist.complete_us_p50"] = stats.Median(ms("dist.complete")) * 1e6
		m["dist.complete_us_p95"] = stats.Percentile(ms("dist.complete"), 95) * 1e6
		m["dist.handler_busy_s"] = sum(ms("dist.lease")) + sum(ms("dist.complete")) + sum(ms("dist.wait")) + sum(ms("dist.other"))
		m["dist.wait_polls"] = float64(len(ms("dist.wait")))
	}
	if w.extra != nil {
		extra, err := w.extra(base)
		if err != nil {
			return err
		}
		for k, v := range extra {
			m[k] = v
		}
	}

	m["proc.updates_per_s"] = updates / base.wall
	m["proc.cpu_us_per_update"] = base.cpu * 1e6 / updates
	m["proc.wall_s"] = base.wall
	m["proc.cpu_s"] = base.cpu
	m["proc.alloc_mb"] = base.allocBytes / 1e6
	m["proc.mallocs_per_update"] = base.mallocs / updates
	m["proc.gc_cycles"] = base.gcCycles
	m["proc.gc_pause_ms"] = base.gcPauseSeconds * 1e3
	m["proc.peak_rss_mb"] = peakRSSMB()
	m["proc.trace_overhead_pct"] = (twin.wall/base.wall - 1) * 100
	m["proc.fail_share"] = ratio(float64(r.res.Failed), float64(r.res.Attempted))
	r.set(perLayerMetrics, m)

	if r.cfg.spans != "" {
		if err := tr.writeJSON(r.cfg.spans); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return nil
}

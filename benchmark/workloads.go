package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bgpsim"
	"bgpsim/internal/churn"
	"bgpsim/internal/des"
	"bgpsim/internal/dist"
	"bgpsim/internal/experiment"
	"bgpsim/internal/stats"
	"bgpsim/internal/topology"
)

// scale sizes every workload. paperScale is what the benchmark reports;
// smokeScale runs the same code on toy worlds so the package test can
// cover every path in seconds.
type scale struct {
	asN          int           // trial500: ASes in the Internet-like world
	skewN        int           // prefix50, fig3-paper, churn-mixed: nodes in the 70-30 world
	prefixK      int           // prefix50: prefixes per AS
	figTrials    int           // fig3-paper: trials per cell
	distNodes    int           // dist-sweep: nodes per world
	distTrials   int           // dist-sweep: trials per cell; every trial has a world of its own, and the topology memo keeps 256
	churnHorizon time.Duration // churn-mixed: arrival horizon of both programs
	linkTrials   int           // churn-mixed: link-flap trials (node-fail runs one)
	setupSeconds float64       // set-up rounds go on until they add up to this
	minReps      int           // timed regions per run, whatever -seconds says
	probeRounds  int           // des probe: hold operations per occupancy
}

var (
	paperScale = scale{asN: 500, skewN: 120, prefixK: 50, figTrials: 1, distNodes: 30, distTrials: 8,
		churnHorizon: 4000 * time.Second, linkTrials: 2, setupSeconds: 1, minReps: 2, probeRounds: 400_000}
	smokeScale = scale{asN: 60, skewN: 20, prefixK: 3, figTrials: 1, distNodes: 20, distTrials: 2,
		churnHorizon: 300 * time.Second, linkTrials: 1, setupSeconds: 0.01, minReps: 1, probeRounds: 20_000}
)

// workloadDef names a workload and says why it is in the set; the "why"
// lines are repeated verbatim in BENCHMARK.json.
type workloadDef struct{ name, why string }

var workloadDefs = []workloadDef{
	{"fig3-paper", "Fig 3 grid (3 failure sizes x 10 MRAIs, 120-node worlds) via Experiment.Run: many small cold FIFO constant-MRAI trials, cost skewed into low-MRAI cells; no dist, churn or prefixes"},
	{"trial500", "one bgpsim.Run of LargeScale500 (500-AS Internet-like, 10% failure, batch+dynamic): des queue occupancy, high-degree decide/flush and the path table dominate; the sweep layer is idle"},
	{"prefix50", "one bgpsim.Run on 120 nodes x 50 prefixes per AS (6000 dense destinations): the only workload where the multi-prefix table dimension does most of the work"},
	{"churn-mixed", "churn.Run of Poisson node-fail then link-flap programs: recoveries, link failures, control events, one window per perturbation; many small overlapping storms instead of one big one"},
	{"dist-sweep", "Fig 3 grid on 30-node worlds through dist.Coordinator and one dist.Worker over loopback HTTP, closed loop: trials take ms, so lease/complete, JSON and HTTP weigh as much as they ever do"},
}

// world identifies one topology a workload simulates on.
type world struct {
	spec topology.Spec
	seed int64
}

// pass is what one execution of a workload's unit of work returns.
type pass struct {
	// output is a canonical rendering of everything the unit computed.
	// Every pass of one run must produce the same bytes, whichever path
	// (one-call or decomposed) produced them.
	output string
	counts counts
	// ops is the number of operations attempted (trials, or churn
	// windows); failed is how many of them broke an invariant.
	ops, failed int
}

// workload is one unit of work and the ways the harness can run it.
type workload struct {
	workloadDef
	// worlds lists every topology the unit simulates on; set-up builds
	// and memoizes them so no timed region pays for generation.
	worlds []world
	// start and stop bring services up and down (dist-sweep only).
	start func() error
	stop  func()
	// run executes the unit the way a default user would: one call into
	// the public API. tr is non-nil only when instrumented is set.
	run func(tr *tracer) (pass, error)
	// reference executes the same unit through the public functions of
	// each layer, with spans when tr is non-nil. It returns the exact
	// counters run cannot see.
	reference func(tr *tracer) (pass, error)
	// needsReference is set when run's pass carries no update counts
	// (Experiment.Run returns only the figure), so even an untraced run
	// starts with an untimed reference pass.
	needsReference bool
	// instrumented is set when the traced twin of run is run itself with
	// a tracer (dist-sweep's wrapped handler), not reference.
	instrumented bool
	// extra reports per-layer metrics only this workload can measure;
	// base is the untraced pass of the traced run.
	extra func(base region) (map[string]float64, error)
}

func newWorkload(name string, seed int64, sc scale) (*workload, error) {
	for _, def := range workloadDefs {
		if def.name != name {
			continue
		}
		var w *workload
		var err error
		switch name {
		case "fig3-paper":
			w, err = figureWorkload(seed, sc.skewN, sc.figTrials, false)
		case "dist-sweep":
			w, err = figureWorkload(seed, sc.distNodes, sc.distTrials, true)
		case "trial500":
			scn := bgpsim.LargeScale500()
			scn.Topology.N = sc.asN
			scn.Seed = seed
			w = trialWorkload(scn)
		case "prefix50":
			w = trialWorkload(bgpsim.Scenario{
				Topology: bgpsim.MultiPrefix(bgpsim.Skewed7030(sc.skewN), sc.prefixK),
				Failure:  bgpsim.GeographicFailure(0.10),
				Scheme:   bgpsim.BatchedDynamic(),
				Seed:     seed,
			})
		case "churn-mixed":
			w = churnWorkload(seed, sc)
		}
		if err != nil {
			return nil, err
		}
		w.workloadDef = def
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// trialWorkload is one batch-failure trial through bgpsim.Run.
func trialWorkload(scn bgpsim.Scenario) *workload {
	failed := scn.Failure.CountFor(scn.Topology.N)
	finish := func(r bgpsim.Result, err error, c counts) (pass, error) {
		if err != nil {
			return pass{ops: 1, failed: 1}, err
		}
		p := pass{output: fmt.Sprintf("%+v", r), counts: c, ops: 1}
		if err := checkResult(r, scn.Topology.N, failed); err != nil {
			p.failed = 1
			return p, err
		}
		return p, nil
	}
	return &workload{
		worlds: []world{{scn.Topology, scn.Seed}},
		run: func(*tracer) (pass, error) {
			r, err := bgpsim.Run(scn)
			var c counts
			c.addResult(r)
			return finish(r, err, c)
		},
		reference: func(tr *tracer) (pass, error) {
			var c counts
			r, err := runDecomposed(tr, -1, 0, scn, &c)
			return finish(r, err, c)
		},
	}
}

// gridSweeper returns a Sweeper that walks a sweep grid in (series, x,
// trial) order, hands every trial's scenario to visit, and assembles the
// figure from what visit returns. The trial seed is the cell seed plus
// the trial index, as in experiment.Sweep; the figure bytes are compared
// with the local sweep's on every run, which is what pins that.
func gridSweeper(visit func(job int, scn experiment.Scenario) (experiment.Result, error)) experiment.Sweeper {
	return func(cfg experiment.SweepConfig) (experiment.Figure, error) {
		cfg, err := experiment.NormalizeSweep(cfg)
		if err != nil {
			return experiment.Figure{}, err
		}
		perCell := make([][]experiment.Result, 0, len(cfg.SeriesNames)*len(cfg.Xs))
		job := 0
		for si := range cfg.SeriesNames {
			for xi := range cfg.Xs {
				cell := experiment.CellScenario(cfg, si, xi)
				results := make([]experiment.Result, cfg.Trials)
				for t := range results {
					scn := cell
					scn.Seed += int64(t)
					if results[t], err = visit(job, scn); err != nil {
						return experiment.Figure{}, fmt.Errorf("series %d x %d trial %d: %w", si, xi, t, err)
					}
					job++
				}
				perCell = append(perCell, results)
			}
		}
		return experiment.AssembleFigure(cfg, perCell)
	}
}

// figureWorkload regenerates Fig 3 with Experiment.Run, locally
// (fig3-paper) or through a coordinator and one worker (dist-sweep).
func figureWorkload(seed int64, nodes, trials int, distributed bool) (*workload, error) {
	exp, err := bgpsim.LookupExperiment("fig3")
	if err != nil {
		return nil, err
	}
	opts := bgpsim.PaperOptions()
	opts.Nodes, opts.Trials, opts.Seed, opts.Workers = nodes, trials, seed, 1

	// Walk the grid once without simulating to learn its trials.
	var grid []experiment.Scenario
	dry := opts
	dry.Sweeper = gridSweeper(func(_ int, scn experiment.Scenario) (experiment.Result, error) {
		grid = append(grid, scn)
		return experiment.Result{}, nil
	})
	if _, err := exp.Run(dry); err != nil {
		return nil, fmt.Errorf("enumerate fig3 grid: %w", err)
	}

	w := &workload{needsReference: true}
	for _, scn := range grid {
		w.worlds = append(w.worlds, world{scn.Topology, scn.Seed})
	}
	render := func(fig bgpsim.Figure, err error) (pass, error) {
		if err != nil {
			return pass{ops: len(grid), failed: len(grid)}, err
		}
		return pass{output: fig.Render(), ops: len(grid)}, nil
	}
	w.reference = func(tr *tracer) (pass, error) {
		var c counts
		failed := 0
		o := opts
		o.Sweeper = gridSweeper(func(job int, scn experiment.Scenario) (experiment.Result, error) {
			cell := tr.begin("experiment.cell", -1, job)
			defer tr.end(cell)
			r, err := runDecomposed(tr, cell, job, scn, &c)
			if err == nil {
				err = checkResult(r, scn.Topology.N, scn.Failure.CountFor(scn.Topology.N))
			}
			if err != nil {
				failed++
			}
			return r, err
		})
		p, err := render(exp.Run(o))
		p.counts, p.failed = c, failed
		return p, err
	}
	if !distributed {
		w.run = func(*tracer) (pass, error) { return render(exp.Run(opts)) }
		return w, nil
	}

	// dist-sweep: an in-process coordinator behind a loopback HTTP
	// server, one worker polling it. The worker outlives the timed
	// regions; between them it polls and is told to wait.
	var (
		coord      *dist.Coordinator
		srv        *httptest.Server
		handler    *tracedHandler
		workerDone chan error
	)
	w.instrumented = true
	w.start = func() error {
		var err error
		if coord, err = dist.NewCoordinator(dist.CoordinatorConfig{}); err != nil {
			return err
		}
		handler = &tracedHandler{next: coord.Handler()}
		srv = httptest.NewServer(handler)
		worker := &dist.Worker{Base: srv.URL, ID: "bench", SimWorkers: 1, PollInterval: time.Millisecond}
		workerDone = make(chan error, 1)
		go func() { workerDone <- worker.Work(context.Background()) }()
		return nil
	}
	w.stop = func() {
		coord.Shutdown()
		<-workerDone
		srv.Close()
	}
	w.extra = func(base region) (map[string]float64, error) {
		// What distribution costs per job is the distributed sweep's wall
		// time over that of the same grid swept locally on one worker.
		local, err := timed(func() error { _, err := exp.Run(opts); return err })
		if err != nil {
			return nil, err
		}
		handler.mu.Lock()
		defer handler.mu.Unlock()
		return map[string]float64{
			"dist.overhead_ms_per_job": (base.wall - local.wall) * 1e3 / float64(len(grid)),
			"dist.bytes_per_job":       float64(handler.bytes) / float64(len(grid)),
			"dist.http_errors":         float64(handler.errors),
		}, nil
	}
	w.run = func(tr *tracer) (pass, error) {
		handler.trace(tr)
		defer handler.trace(nil)
		before := coord.Stats().Dispatched
		o := opts
		o.Sweeper = coord.SweeperFor(context.Background(), exp.ID, o)
		p, err := render(exp.Run(o))
		if err != nil {
			return p, err
		}
		if got := coord.Stats().Dispatched - before; got != int64(len(grid)) {
			p.failed++
			return p, fmt.Errorf("coordinator dispatched %d leases for %d trial jobs", got, len(grid))
		}
		return p, nil
	}
	return w, nil
}

// tracedHandler wraps the coordinator's HTTP handler. With no tracer
// installed it passes requests straight through; with one it records a
// span per request and counts bytes, wait polls and HTTP errors.
type tracedHandler struct {
	next http.Handler
	tr   atomic.Pointer[tracer]

	mu     sync.Mutex
	seq    int
	bytes  int64 // request and reply bodies of leases and completions, wait polls left out
	errors int
}

func (h *tracedHandler) trace(tr *tracer) { h.tr.Store(tr) }

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.tr.Load()
	if tr == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	h.mu.Lock()
	h.seq++
	id := h.seq
	h.mu.Unlock()
	rec := &recordingWriter{ResponseWriter: w, code: http.StatusOK}
	start := tr.now()
	h.next.ServeHTTP(rec, r)
	end := tr.now()

	// The lease reply's first field is its status, so the head of the
	// body tells a real lease from a wait poll.
	name := "dist.other"
	wait := false
	switch {
	case strings.HasSuffix(r.URL.Path, "/lease"):
		name = "dist.lease"
		if wait = bytes.Contains(rec.head, []byte(`"status":"`+dist.StatusWait+`"`)); wait {
			name = "dist.wait"
		}
	case strings.HasSuffix(r.URL.Path, "/complete"):
		name = "dist.complete"
	}
	tr.record(name, -1, id, start, end)
	h.mu.Lock()
	if !wait {
		h.bytes += r.ContentLength + rec.n
	}
	if rec.code >= 400 {
		h.errors++
	}
	h.mu.Unlock()
}

// recordingWriter counts response bytes and keeps the head of the body.
type recordingWriter struct {
	http.ResponseWriter
	code int
	n    int64
	head []byte
}

func (w *recordingWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *recordingWriter) Write(p []byte) (int, error) {
	if room := 64 - len(w.head); room > 0 {
		w.head = append(w.head, p[:min(room, len(p))]...)
	}
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// churnWorkload streams two Poisson programs back to back over the same
// worlds: router failures with reboots, then link flaps.
func churnWorkload(seed int64, sc scale) *workload {
	base := churn.Scenario{Topology: bgpsim.Skewed7030(sc.skewN), Scheme: "batch+dynamic", Seed: seed}
	program := func(kind churn.Kind) churn.Spec {
		return churn.Spec{Kind: kind, Rate: 0.05, Duration: sc.churnHorizon, HoldMin: 5 * time.Second, HoldMax: 30 * time.Second}
	}
	programs := []struct {
		spec   churn.Spec
		trials int
	}{{program(churn.PoissonNodeFail), 1}, {program(churn.PoissonLinkFlap), sc.linkTrials}}

	w := &workload{}
	for i := 0; i < max(1, sc.linkTrials); i++ {
		w.worlds = append(w.worlds, world{base.Topology, seed + int64(i)}) // trial i runs on seed+i
	}
	w.extra = func(region) (map[string]float64, error) {
		net, err := experiment.BuildTopologyCached(base.Topology, seed)
		if err != nil {
			return nil, err
		}
		var samples []float64
		for rep := 0; rep < probeReps; rep++ {
			t0 := time.Now()
			for _, prog := range programs {
				if _, err := churn.Expand(net, prog.spec, des.NewRNG(seed).Split("churn")); err != nil {
					return nil, err
				}
			}
			samples = append(samples, time.Since(t0).Seconds()*1e3)
		}
		return map[string]float64{"churn.expand_ms": stats.Median(samples)}, nil
	}
	// collect renders a finished program and checks its windows.
	collect := func(p *pass, rr churn.RunResult) error {
		data, err := json.Marshal(rr)
		if err != nil {
			return err
		}
		p.output += string(data) + "\n"
		var firstErr error
		for _, t := range rr.Trials {
			if len(t.Windows) == 0 {
				p.ops, p.failed = p.ops+1, p.failed+1
				firstErr = fmt.Errorf("%s trial %d closed no window", rr.Scenario.Program.Kind, t.Trial)
			}
			for i, win := range t.Windows {
				p.ops++
				p.counts.windows++
				p.counts.windowUpdates += int64(win.Processed)
				p.counts.messages += int64(win.Announcements + win.Withdrawals)
				p.counts.discarded += int64(win.Discarded)
				p.counts.routeChanges += int64(win.RouteChanges)
				p.counts.simDelay += win.Delay.Seconds()
				if win.Index != i || win.Delay < 0 || (i > 0 && win.At < t.Windows[i-1].At) {
					p.failed++
					firstErr = fmt.Errorf("%s trial %d window %d out of order or negative: %+v", rr.Scenario.Program.Kind, t.Trial, i, win)
				}
			}
		}
		return firstErr
	}
	w.run = func(*tracer) (pass, error) {
		var p pass
		for _, prog := range programs {
			scn := base
			scn.Program = prog.spec
			rr, err := churn.Run(context.Background(), scn, prog.trials, 1, nil)
			if err != nil {
				return pass{ops: 1, failed: 1}, err
			}
			if err := collect(&p, rr); err != nil {
				return p, err
			}
		}
		return p, nil
	}
	// The decomposed twin is churn.Run's own serial loop: one Runner per
	// program, RunTrial per trial, results assembled in trial order. The
	// observer stamps the host time at which each window closed.
	w.reference = func(tr *tracer) (pass, error) {
		var p pass
		job := 0
		for _, prog := range programs {
			scn := base
			scn.Program = prog.spec
			runner := churn.NewRunner()
			rr := churn.RunResult{Scenario: scn}
			for i := 0; i < prog.trials; i++ {
				trial := tr.begin("churn.trial", -1, job)
				var closed []int64
				res, err := runner.RunTrial(context.Background(), scn, i, func(int, churn.WindowResult, []int) {
					closed = append(closed, tr.now())
				})
				tr.end(trial)
				// A window's host time runs from the previous window's close to
				// its own. The first window has no such start (it follows
				// initial convergence), so it gets no span.
				for k := 1; k < len(closed); k++ {
					tr.record("churn.window", trial, job, closed[k-1], closed[k])
				}
				if err != nil {
					return pass{ops: 1, failed: 1}, err
				}
				rr.Trials = append(rr.Trials, res)
				job++
			}
			if err := collect(&p, rr); err != nil {
				return p, err
			}
		}
		return p, nil
	}
	return w
}

// buildWorld generates one topology. With memoize set it goes through
// the process-wide memo the simulator's own runs read; without, it
// builds the same network from the same stream and throws it away, which
// is how set-up can be repeated for a median.
func buildWorld(wd world, memoize bool) error {
	if memoize {
		_, err := experiment.BuildTopologyCached(wd.spec, wd.seed)
		return err
	}
	_, err := wd.spec.Build(des.NewRNG(wd.seed).Split("topology"))
	return err
}

// checkHeld verifies that the topology memo serves every one of worlds.
// The memo is insert-only up to a cap: a world it holds comes back as the
// same network on every call, a world it turned away is built anew each
// time.
func checkHeld(worlds []world) error {
	for i, wd := range worlds {
		a, err := experiment.BuildTopologyCached(wd.spec, wd.seed)
		if err != nil {
			return err
		}
		if b, _ := experiment.BuildTopologyCached(wd.spec, wd.seed); a != b {
			return fmt.Errorf("world %d of %d (seed %d) is not held by the topology memo: the unit simulates on more distinct worlds than the memo keeps", i+1, len(worlds), wd.seed)
		}
	}
	return nil
}

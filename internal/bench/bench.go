// Package bench is the canonical registry of the simulator's end-to-end
// benchmarks. The same entries back two consumers:
//
//   - the `go test -bench` suites (internal/bgp and the repo root import
//     the registry from their _test files, so benchmark names and bodies
//     stay in one place), and
//   - cmd/bgpbench, which runs entries through testing.Benchmark and
//     emits the machine-readable BENCH.json gate baseline.
//
// Entries deliberately use only exported API (bgpsim, internal/bgp,
// internal/topology, internal/experiment, internal/des, internal/dist),
// so the registry measures what a user of the library gets, and a
// benchmark body cannot quietly depend on unexported state.
package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"bgpsim"
	"bgpsim/internal/bgp"
	"bgpsim/internal/churn"
	"bgpsim/internal/des"
	"bgpsim/internal/dist"
	"bgpsim/internal/experiment"
	"bgpsim/internal/mrai"
	"bgpsim/internal/snapshot"
	"bgpsim/internal/topology"
)

// Entry is one named benchmark runnable both under `go test -bench` and
// via testing.Benchmark in cmd/bgpbench.
type Entry struct {
	// Name is the benchmark's identifier, matching the historical
	// Benchmark<Name> function names.
	Name string
	// Fn is the benchmark body.
	Fn func(b *testing.B)
}

// Suite returns the registry in fixed order.
func Suite() []Entry {
	return []Entry{
		{"ConvergeAndFailFIFO", func(b *testing.B) { convergeAndFail(b, nil) }},
		{"ConvergeAndFailBatched", func(b *testing.B) {
			convergeAndFail(b, func(p *bgp.Params) { p.Queue = bgp.QueueBatched })
		}},
		{"ConvergeAndFailDynamic", func(b *testing.B) {
			convergeAndFail(b, func(p *bgp.Params) { p.MRAI = mrai.PaperDynamic() })
		}},
		{"ConvergeAndFailDamped", func(b *testing.B) {
			convergeAndFail(b, func(p *bgp.Params) { p.Damping = bgp.DefaultDamping() })
		}},
		{"ScenarioSmallFailureFIFO", func(b *testing.B) {
			scenario(b, bgpsim.Scenario{
				Topology: bgpsim.Skewed7030(60),
				Failure:  bgpsim.GeographicFailure(0.025),
				Scheme:   bgpsim.ConstantMRAI(500 * time.Millisecond),
			})
		}},
		{"ScenarioLargeFailureFIFO", func(b *testing.B) {
			scenario(b, bgpsim.Scenario{
				Topology: bgpsim.Skewed7030(60),
				Failure:  bgpsim.GeographicFailure(0.20),
				Scheme:   bgpsim.ConstantMRAI(500 * time.Millisecond),
			})
		}},
		{"ScenarioLargeFailureBatched", func(b *testing.B) {
			scenario(b, bgpsim.Scenario{
				Topology: bgpsim.Skewed7030(60),
				Failure:  bgpsim.GeographicFailure(0.20),
				Scheme:   bgpsim.BatchedProcessing(500 * time.Millisecond),
			})
		}},
		{"ScenarioDynamicMRAI", func(b *testing.B) {
			scenario(b, bgpsim.Scenario{
				Topology: bgpsim.Skewed7030(60),
				Failure:  bgpsim.GeographicFailure(0.10),
				Scheme:   bgpsim.DynamicMRAI(),
			})
		}},
		{"ScenarioRealisticIBGP", func(b *testing.B) {
			topo := bgpsim.Realistic(30)
			topo.MaxASSize = 6
			// Cycle a small seed set: the realistic generator (AS sizing +
			// IBGP meshing) dominated this entry when every iteration grew a
			// fresh topology, so the measurement tracked the generator, not
			// the protocol. With 8 worlds served by the topology memo the
			// steady state measures the simulation itself.
			scenarioSeedCycle(b, bgpsim.Scenario{
				Topology: topo,
				Failure:  bgpsim.GeographicFailure(0.10),
				Scheme:   bgpsim.DynamicMRAI(),
			}, 8)
		}},
		{"ConvergeLargeScale", func(b *testing.B) {
			// The PR-5 scale target: 500 ASes through the incremental
			// decision process. Seed-cycled so the topology memo serves the
			// worlds and the entry measures the simulation, not generation.
			scenarioSeedCyclePhased(b, bgpsim.LargeScale500(), 4)
		}},
		{"ConvergeLargeScaleSharded", convergeLargeScaleSharded},
		{"ConvergeLargeScaleWarm", convergeLargeScaleWarm},
		{"StormOnly", stormOnly},
		{"SnapshotConverge500", snapshotConverge500},
		{"ConvergeMultiPrefix", convergeMultiPrefix},
		{"ConvergeAndFailFIFOReset", convergeAndFailReset},
		{"SweepDistinctWorlds", sweepDistinctWorlds},
		{"TopologyCacheHit", topologyCacheHit},
		{"TopologyCacheMiss", topologyCacheMiss},
		{"DESCalendarPushPop", desCalendarPushPop},
		{"DESCalendarMRAIHorizon", desCalendarMRAIHorizon},
		{"DistDispatch", distDispatch},
		{"ChurnStep", churnStep},
	}
}

// Lookup returns the entry with the given name.
func Lookup(name string) (Entry, bool) {
	for _, e := range Suite() {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// convergeAndFail is the body behind the ConvergeAndFail* entries: one
// full simulation (initial convergence, 6-node geographic failure,
// re-convergence) per iteration on a fixed 60-node topology.
func convergeAndFail(b *testing.B, mutate func(*bgp.Params)) {
	b.Helper()
	rng := des.NewRNG(1)
	nw, err := topology.SkewedNetwork(topology.Skewed7030(60), rng)
	if err != nil {
		b.Fatal(err)
	}
	fail := topology.NearestNodes(nw, topology.GridCenter(nw), 6, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := bgp.DefaultParams()
		p.MRAI = mrai.Constant(500 * time.Millisecond)
		p.Seed = int64(i + 1)
		if mutate != nil {
			mutate(&p)
		}
		sim, err := bgp.New(nw, p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.ConvergeAndFail(fail); err != nil {
			b.Fatal(err)
		}
	}
}

// WarmStart flips every scenario-layer entry to snapshot-seeded trials
// (cmd/bgpbench -warmstart sets it), the same override model as
// ShardCount and MultiPrefixCount: the entry list stays fixed while the
// execution mode becomes a command-line dimension. Results are
// byte-identical either way; only wall clock moves.
var WarmStart = false

// scenario is the body behind the Scenario* entries: one scenario-layer
// run (topology generation included) per iteration, fresh seed each time.
func scenario(b *testing.B, sc bgpsim.Scenario) {
	b.Helper()
	b.ReportAllocs()
	sc.WarmStart = sc.WarmStart || WarmStart
	for i := 0; i < b.N; i++ {
		sc.Seed = int64(1 + i)
		if _, err := bgpsim.Run(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// scenarioSeedCycle runs the scenario cycling through `worlds` fixed
// seeds, so from the second lap onward every topology is a memo hit and
// the iteration cost is simulation, not generation.
func scenarioSeedCycle(b *testing.B, sc bgpsim.Scenario, worlds int) {
	b.Helper()
	b.ReportAllocs()
	sc.WarmStart = sc.WarmStart || WarmStart
	for i := 0; i < b.N; i++ {
		sc.Seed = int64(1 + i%worlds)
		if _, err := bgpsim.Run(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// scenarioSeedCyclePhased is scenarioSeedCycle plus the phase split: the
// simulator's setup/storm wall-clock counters (bgp.TakePhaseNs) are
// drained around the timed loop and reported as setup-ns/op and
// storm-ns/op, so the aggregate ns/op decomposes into the
// initial-convergence phase and the post-failure exploration storm.
// cmd/bgpbench carries both through to the JSON trajectory.
func scenarioSeedCyclePhased(b *testing.B, sc bgpsim.Scenario, worlds int) {
	b.Helper()
	b.ReportAllocs()
	sc.WarmStart = sc.WarmStart || WarmStart
	bgp.TakePhaseNs() // drop residue from earlier entries or warm-up laps
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Seed = int64(1 + i%worlds)
		if _, err := bgpsim.Run(sc); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	setup, storm := bgp.TakePhaseNs()
	b.ReportMetric(float64(setup)/float64(b.N), "setup-ns/op")
	b.ReportMetric(float64(storm)/float64(b.N), "storm-ns/op")
}

// ShardCount is the shard dimension of the ConvergeLargeScaleSharded
// entry (cmd/bgpbench -shards overrides it). The entry runs in
// sequenced mode, so its results are byte-identical to
// ConvergeLargeScale; what it measures is the overhead the sharded
// driver adds per event — partitioning, barrier accounting, and
// cross-shard buffering — which is the cost floor under the concurrent
// mode's speedup.
var ShardCount = 4

// convergeLargeScaleSharded is the sharded twin of ConvergeLargeScale:
// the same 500-AS scenario through ShardCount sequenced shards.
func convergeLargeScaleSharded(b *testing.B) {
	sc := bgpsim.LargeScale500()
	sc.Shards = ShardCount
	scenarioSeedCycle(b, sc, 4)
}

// convergeLargeScaleWarm is the warm-started twin of ConvergeLargeScale:
// identical 500-AS scenario, but each trial installs the snapshot
// backend's fixpoint and starts at failure injection. The gap between
// this entry's ns/op and ConvergeLargeScale's is the initial-convergence
// phase the snapshot backend eliminates — ~8x cheaper as a phase, but a
// ~20-40% trial-level saving at this failure size, because the
// byte-identity-pinned post-failure storm dominates the trial (see
// EXPERIMENTS.md "Snapshot warm start"). The first iteration per world
// pays the snapshot computation; later laps hit bgp's snapshot cache,
// which is the steady state sweeps see.
func convergeLargeScaleWarm(b *testing.B) {
	sc := bgpsim.LargeScale500()
	sc.WarmStart = true
	scenarioSeedCyclePhased(b, sc, 4)
}

// stormOnly isolates the post-failure exploration storm: the 500-AS
// world of ConvergeLargeScaleWarm with setup — snapshot install, failure
// scheduling — performed under StopTimer, so ns/op is purely the run
// from failure injection to quiescence. This is the storm fast lane's
// headline metric: the blocked-skip/coalesced-MRAI/second-best
// optimizations only touch this window, and here their effect is not
// diluted by setup cost (see EXPERIMENTS.md "Storm fast lane").
func stormOnly(b *testing.B) {
	net, err := experiment.BuildTopologyCached(bgpsim.LargeScale500().Topology, 1)
	if err != nil {
		b.Fatal(err)
	}
	p := bgp.DefaultParams()
	p.Queue = bgp.QueueBatched
	p.MRAI = mrai.PaperDynamic()
	p.WarmStart = true
	p.Seed = 1
	sim, err := bgp.New(net, p)
	if err != nil {
		b.Fatal(err)
	}
	// The paper's 10% geographic failure on this world, resolved once —
	// the failure set is a function of the topology, not the trial seed.
	fail := topology.NearestNodes(net, topology.GridCenter(net), net.NumNodes()/10, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p.Seed = int64(i + 1)
		if err := sim.Reset(p); err != nil {
			b.Fatal(err)
		}
		if err := sim.ConvergeInitial(); err != nil {
			b.Fatal(err)
		}
		sim.ScheduleFailure(sim.Now()+bgp.SettleMargin, fail)
		b.StartTimer()
		if err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// snapshotConverge500 measures the snapshot backend alone: one full
// relaxation to the converged fixpoint of the 500-AS Internet-like world
// per iteration, no DES involved. Its ns/op is the fixed cost a
// warm-started trial pays on a snapshot-cache miss; compare against
// ConvergeLargeScale to see the relaxation-vs-event-exploration gap.
func snapshotConverge500(b *testing.B) {
	net, err := experiment.BuildTopologyCached(bgpsim.LargeScale500().Topology, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snapshot.Compute(net, snapshot.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// MultiPrefixCount is the prefix dimension of the ConvergeMultiPrefix
// entry (cmd/bgpbench -prefixes overrides it). The default keeps the
// entry at benchmark-friendly wall clock while the destination table —
// 60 ASes × 50 prefixes = 3000 dense dests — is large enough that the
// entry's bytes/op tracks the compact route encoding: interned path
// refs shared across all 50 prefixes of an origin, and per-peer columns
// materialized only for peers that advertise. The full-scale twin
// (bgpsim.LargeScaleMultiPrefix, 500 ASes × 1000 prefixes) runs behind
// the BGPSIM_LARGE test gate, not here.
var MultiPrefixCount = 50

// convergeMultiPrefix is the PR-6 table-scale entry: the same
// converge-fail-reconverge shape as the Scenario entries with every AS
// originating MultiPrefixCount prefixes.
func convergeMultiPrefix(b *testing.B) {
	scenarioSeedCycle(b, bgpsim.Scenario{
		Topology: bgpsim.MultiPrefix(bgpsim.Skewed7030(60), MultiPrefixCount),
		Failure:  bgpsim.GeographicFailure(0.10),
		Scheme:   bgpsim.BatchedDynamic(),
	}, 4)
}

// convergeAndFailReset is the pooled twin of ConvergeAndFailFIFO: one
// simulator is built once and Reset between iterations, measuring the
// per-trial setup cost the dense-state reuse path actually pays inside
// sweeps (the FIFO entry pays full construction every iteration).
func convergeAndFailReset(b *testing.B) {
	rng := des.NewRNG(1)
	nw, err := topology.SkewedNetwork(topology.Skewed7030(60), rng)
	if err != nil {
		b.Fatal(err)
	}
	fail := topology.NearestNodes(nw, topology.GridCenter(nw), 6, nil)
	p := bgp.DefaultParams()
	p.MRAI = mrai.Constant(500 * time.Millisecond)
	p.Seed = 1
	sim, err := bgp.New(nw, p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Seed = int64(i + 1)
		if err := sim.Reset(p); err != nil {
			b.Fatal(err)
		}
		if _, err := sim.ConvergeAndFail(fail); err != nil {
			b.Fatal(err)
		}
	}
}

// sweepDistinctWorlds is the sweep-level twin of
// ConvergeAndFailFIFOReset, shaped like the paper's own figures: a
// non-paired grid (2 failure sizes × 5 MRAIs, one trial per cell, 60
// nodes, one worker) in which no two trials share a world, so every
// trial after the first runs on a pooled simulator rebound to a network
// it has never seen. The worlds are memoized before the clock starts.
// bytes/op is what the gate watches: the buffers of the largest trial
// once, where construction per trial would pay the sum of all ten
// (about four times as much).
func sweepDistinctWorlds(b *testing.B) {
	fracs := []float64{0.05, 0.10}
	cfg := experiment.SweepConfig{
		SeriesNames: []string{"5%", "10%"},
		Xs:          []float64{0.25, 0.5, 1.0, 2.0, 4.0},
		Trials:      1,
		Workers:     1,
		Cell: func(si int, x float64) experiment.Scenario {
			return experiment.Scenario{
				Topology: topology.Spec{Kind: topology.KindSkewed7030, N: 60},
				Failure:  bgpsim.GeographicFailure(fracs[si]),
				Scheme:   experiment.ConstantMRAI(experiment.SecondsToDuration(x)),
				Seed:     1,
			}
		},
	}
	if _, err := experiment.Sweep(cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Sweep(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// topologyCacheHit measures serving a paper-scale topology from the
// process-wide memo.
func topologyCacheHit(b *testing.B) {
	spec := topology.Spec{Kind: topology.KindSkewed7030, N: 120}
	if _, err := experiment.BuildTopologyCached(spec, 1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.BuildTopologyCached(spec, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// topologyCacheMiss measures the full build cost behind a memo miss: a
// fresh seed every iteration, so no iteration is served from cache.
func topologyCacheMiss(b *testing.B) {
	spec := topology.Spec{Kind: topology.KindSkewed7030, N: 120}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.BuildTopologyCached(spec, int64(1_000_000+i)); err != nil {
			b.Fatal(err)
		}
	}
}

// distDispatch measures the distributed coordinator's per-job dispatch
// overhead in isolation: each iteration is one lease + one no-op-cell
// completion round trip through the protocol handler, invoked directly
// (no sockets), so the number tracks protocol encoding and lease
// bookkeeping only — jobs/sec the coordinator can serve is 1e9/ns_op.
func distDispatch(b *testing.B) {
	coord, err := dist.NewCoordinator(dist.CoordinatorConfig{})
	if err != nil {
		b.Fatal(err)
	}
	// One job per iteration: a b.N × 1 grid with a single trial per cell.
	series := make([]string, b.N)
	for i := range series {
		series[i] = "s"
	}
	cfg := experiment.SweepConfig{SeriesNames: series, Xs: []float64{1}, Trials: 1}
	done := make(chan error, 1)
	go func() {
		_, err := coord.RunSweep(context.Background(), "bench", 0, dist.Options{}, cfg)
		done <- err
	}()
	for !coord.Stats().Active {
		runtime.Gosched()
	}
	h := coord.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var lease dist.LeaseResponse
		if err := protocolRoundTrip(h, "/v1/lease", dist.LeaseRequest{Worker: "bench"}, &lease); err != nil {
			b.Fatal(err)
		}
		if lease.Status != dist.StatusJob {
			b.Fatalf("lease %d: status %q", i, lease.Status)
		}
		var ack dist.CompleteResponse
		req := dist.CompleteRequest{
			Worker: "bench", SweepID: lease.SweepID, JobID: lease.Job.ID,
			Lease: lease.Lease, Results: []experiment.Result{{}},
		}
		if err := protocolRoundTrip(h, "/v1/complete", req, &ack); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := <-done; err != nil {
		b.Fatal(err)
	}
}

// churnStep measures the always-on churn path: one churn trial per
// iteration — initial convergence (pooled simulator, memoized topology),
// then a fixed flap-cycle program streamed through the absolute-time
// control path with a measurement window normalized per event. The
// windows/op metric makes the per-window cost explicit: ns_op divided by
// windows/op is what one churn perturbation costs end to end, the
// steady-state unit of work a service-mode coordinator dispatches.
func churnStep(b *testing.B) {
	sc := churn.Scenario{
		Topology: bgpsim.Skewed7030(60),
		Scheme:   "mrai=0.5",
		Program: churn.Spec{
			Kind:    churn.FlapCycle,
			Cycles:  3,
			Period:  20 * time.Second,
			HoldMin: 2 * time.Second,
			HoldMax: 5 * time.Second,
		},
		Seed: 1,
	}
	runner := churn.NewRunner()
	windows := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := runner.RunTrial(context.Background(), sc, i, nil)
		if err != nil {
			b.Fatal(err)
		}
		windows += len(tr.Windows)
	}
	b.StopTimer()
	b.ReportMetric(float64(windows)/float64(b.N), "windows/op")
}

// protocolRoundTrip drives one coordinator exchange through the recorder.
func protocolRoundTrip(h http.Handler, path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", path, rec.Code, rec.Body.String())
	}
	return json.Unmarshal(rec.Body.Bytes(), resp)
}

// desCalendarPushPop measures the event queue at the occupancy a 500-AS
// simulation sustains (~4096 outstanding events): one iteration
// schedules and drains the full queue.
func desCalendarPushPop(b *testing.B) {
	desQueueBench(b, desUniformDelays())
}

// desCalendarMRAIHorizon measures the queue on the distribution BGP
// runs actually produce: MRAI timer delays clustered in 0.5–2.25s,
// which land within the calendar ring's horizon.
func desCalendarMRAIHorizon(b *testing.B) {
	desQueueBench(b, desMRAIDelays())
}

// desUniformDelays spreads 4096 events over 1ms — heavy same-bucket
// collisions for the calendar ring.
func desUniformDelays() []des.Time {
	const events = 4096
	rng := des.NewRNG(7)
	delays := make([]des.Time, events)
	for i := range delays {
		delays[i] = des.Time(rng.Intn(1_000_000))
	}
	return delays
}

// desMRAIDelays mimics MRAI timer re-arms: 4096 events uniform in
// 0.5–2.25s, the paper's dynamic-ladder range.
func desMRAIDelays() []des.Time {
	const events = 4096
	rng := des.NewRNG(11)
	delays := make([]des.Time, events)
	for i := range delays {
		delays[i] = des.Time(500_000_000 + rng.Intn(1_750_000_000))
	}
	return delays
}

func desQueueBench(b *testing.B, delays []des.Time) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := des.NewEngine()
		for _, d := range delays {
			eng.Schedule(d, func() {})
		}
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

package main

import (
	"fmt"

	"bgpsim/internal/bgp"
	"bgpsim/internal/des"
	"bgpsim/internal/experiment"
	"bgpsim/internal/failure"
)

// counts are the simulator's own exact counters, summed over the trials
// of one pass (maxQueue is the maximum). A pass through the public
// one-call path fills only what experiment.Result and churn windows
// carry; the decomposed path fills all of them.
type counts struct {
	windows       int   // measurement windows: one per batch trial, one per churn perturbation
	windowUpdates int64 // updates processed inside measurement windows
	totalUpdates  int64 // updates processed over whole runs, initial convergence included
	messages      int64 // updates sent inside measurement windows
	discarded     int64
	routeChanges  int64
	maxQueue      int64
	pathReg       int64
	pathLive      int64
	compactions   int64
	simDelay      float64 // summed simulated convergence delay, seconds
}

func (c *counts) addResult(r experiment.Result) {
	c.windows++
	c.windowUpdates += int64(r.Processed)
	c.messages += int64(r.Messages)
	c.discarded += int64(r.Discarded)
	c.routeChanges += int64(r.RouteChanges)
	c.simDelay += r.Delay.Seconds()
}

// checkResult applies the invariants every batch-failure trial must
// satisfy whatever its seed.
func checkResult(r experiment.Result, nodes, failed int) error {
	switch {
	case r.Nodes != nodes || r.FailedNodes != failed:
		return fmt.Errorf("trial ran %d nodes with %d failed, want %d with %d", r.Nodes, r.FailedNodes, nodes, failed)
	case r.Delay <= 0:
		return fmt.Errorf("convergence delay %v, want > 0", r.Delay)
	case r.Processed+r.Discarded > r.Messages:
		return fmt.Errorf("processed %d + discarded %d exceeds the %d updates sent", r.Processed, r.Discarded, r.Messages)
	}
	return nil
}

// runDecomposed is the traced twin of experiment.Run: the same trial
// through the public functions of each layer, one span per call. It
// mirrors the default path only (no policy, sharding or warm start, which
// no workload uses): root RNG from the scenario seed, streams split off
// in the order "topology", "failure", "sim", then Build → bgp.New →
// failure.Select → ConvergeInitial → ScheduleFailure+Run → Collector.
// Callers compare what it returns with the one-call path on every run,
// so a drift in split order or seed derivation fails the benchmark
// instead of measuring a different trial.
func runDecomposed(tr *tracer, parent, id int, sc experiment.Scenario, c *counts) (experiment.Result, error) {
	if sc.Shards != 0 || sc.WarmStart || sc.PolicyHierarchical || sc.PolicyRatio != 0 || sc.Topology.Relationships != "" {
		return experiment.Result{}, fmt.Errorf("decomposed path covers the default configuration only: %+v", sc)
	}
	trial := tr.begin("experiment.trial", parent, id)
	defer tr.end(trial)

	root := des.NewRNG(sc.Seed)
	root.Split("topology") // BuildTopologyCached derives this stream from the seed itself
	failRNG := root.Split("failure")

	s := tr.begin("experiment.topo_cache", trial, id)
	net, err := experiment.BuildTopologyCached(sc.Topology, sc.Seed)
	tr.end(s)
	if err != nil {
		return experiment.Result{}, fmt.Errorf("build topology: %w", err)
	}

	params := bgp.DefaultParams()
	if sc.Base != nil {
		params = *sc.Base
	}
	params.Seed = root.Split("sim").Int63()
	if sc.Topology.PrefixesPerOrigin > 0 {
		params.PrefixesPerAS = sc.Topology.PrefixesPerOrigin
	}
	if sc.Scheme.Apply != nil {
		sc.Scheme.Apply(&params)
	}

	s = tr.begin("bgp.new", trial, id)
	sim, err := bgp.New(net, params)
	tr.end(s)
	if err != nil {
		return experiment.Result{}, fmt.Errorf("build simulator: %w", err)
	}

	s = tr.begin("failure.select", trial, id)
	nodes, err := failure.Select(net, sc.Failure, failRNG)
	tr.end(s)
	if err != nil {
		return experiment.Result{}, fmt.Errorf("select failure: %w", err)
	}

	s = tr.begin("bgp.converge_initial", trial, id)
	err = sim.ConvergeInitial()
	tr.end(s)
	if err != nil {
		return experiment.Result{}, err
	}

	s = tr.begin("bgp.storm", trial, id)
	sim.ScheduleFailure(sim.Now()+bgp.SettleMargin, nodes)
	err = sim.Run()
	tr.end(s)
	if err != nil {
		return experiment.Result{}, fmt.Errorf("re-convergence: %w", err)
	}

	col := sim.Collector()
	res := experiment.Result{
		Delay:         col.ConvergenceDelay(),
		WindowStart:   col.WindowStart(),
		Messages:      col.Messages(),
		Announcements: col.Announcements,
		Withdrawals:   col.Withdrawals,
		Processed:     col.Processed,
		Discarded:     col.Discarded,
		RouteChanges:  col.RouteChanges(),
		FailedNodes:   len(nodes),
		Nodes:         net.NumNodes(),
	}
	c.addResult(res)
	c.totalUpdates += int64(col.TotalProcessed)
	if q := int64(col.MaxQueueLen); q > c.maxQueue {
		c.maxQueue = q
	}
	ps := sim.PathTableStats()
	c.pathReg += int64(ps.Registered)
	c.pathLive += int64(ps.Live)
	c.compactions += int64(ps.Compactions)
	return res, nil
}

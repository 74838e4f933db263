package main

import (
	"time"

	"bgpsim/internal/des"
	"bgpsim/internal/experiment"
	"bgpsim/internal/snapshot"
	"bgpsim/internal/stats"
)

// The des probes drive the event queue alone, through des.NewEngine,
// Schedule and Run. Inside a trial des cannot be told apart from bgp
// from outside the simulator, so these stand in for it: the hold model
// (every fired event schedules its successor) at the queue occupancy of a
// 120-node trial (64) and of a 500-AS trial (4096), with the 0.5-2.25 s
// delays MRAI timers produce, and a burst of 4096 events inside 1 ms,
// the shape of a same-instant update flood.

const probeReps = 5 // each probe reports the median of this many repetitions

// desHold returns host ns per event of the hold model at occupancy n.
func desHold(n, rounds int) (float64, error) {
	rng := des.NewRNG(11)
	delays := make([]des.Time, 1024)
	for i := range delays {
		delays[i] = des.Time(500_000_000 + rng.Intn(1_750_000_000))
	}
	var samples []float64
	for rep := 0; rep < probeReps; rep++ {
		eng := des.NewEngine()
		fired, next := 0, 0
		var hold des.Handler
		hold = func() {
			fired++
			if fired <= rounds {
				eng.Schedule(delays[next%len(delays)], hold)
				next++
			}
		}
		for i := 0; i < n; i++ {
			eng.Schedule(delays[i%len(delays)], hold)
		}
		t0 := time.Now()
		if err := eng.Run(); err != nil {
			return 0, err
		}
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/float64(fired))
	}
	return stats.Median(samples), nil
}

// desDrainDense returns host ns per event to schedule and drain bursts of
// 4096 events that all fall inside one simulated millisecond.
func desDrainDense(rounds int) (float64, error) {
	const burst = 4096
	rng := des.NewRNG(7)
	delays := make([]des.Time, burst)
	for i := range delays {
		delays[i] = des.Time(rng.Intn(1_000_000))
	}
	var samples []float64
	for rep := 0; rep < probeReps; rep++ {
		events := 0
		t0 := time.Now()
		for ; events < rounds; events += burst {
			eng := des.NewEngine()
			for _, d := range delays {
				eng.Schedule(d, func() {})
			}
			if err := eng.Run(); err != nil {
				return 0, err
			}
		}
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/float64(events))
	}
	return stats.Median(samples), nil
}

// snapshotProbe computes the event-free fixpoint of a workload's first
// world. No default-configuration workload calls the snapshot backend, so
// this is the only place its cost shows.
func snapshotProbe(wd world) (ms float64, rounds int, err error) {
	net, err := experiment.BuildTopologyCached(wd.spec, wd.seed)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	res, err := snapshot.Compute(net, snapshot.Config{})
	if err != nil {
		return 0, 0, err
	}
	return time.Since(t0).Seconds() * 1e3, res.Rounds(), nil
}

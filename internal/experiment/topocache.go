package experiment

import (
	"sync"
	"sync/atomic"

	"bgpsim/internal/des"
	"bgpsim/internal/topology"
)

// Topology construction is deterministic: a (Spec, scenario seed) pair
// fully determines the built network, because the topology RNG stream is
// derived from the seed alone. Building the same network once and
// sharing the immutable *Network across trials removes the
// generator-dominated setup cost from paired sweeps (every series in a
// SameWorldAcrossSeries sweep replays the same per-x worlds) and from
// benchmarks that cycle a small set of seeds. The simulator never
// mutates the Network, so one instance may back many concurrent trials.

// topoKey identifies one deterministically built topology: the spec and
// the scenario seed that derives its RNG stream. Spec is a flat
// comparable value, so a lookup allocates nothing.
// TestTopoKeyCoversEverySpecField fails when a field is added that the
// key cannot compare or does not see.
type topoKey struct {
	spec topology.Spec
	seed int64
}

// topoCacheCap bounds the number of memoized networks. Once full, new
// keys build uncached — a throughput loss, never a correctness one.
const topoCacheCap = 256

// topoEntry is one memoized build. The once gate makes concurrent
// requests for the same key build exactly once; losers wait and share.
// net is atomic so that BuildTopologyCached can tell a finished build
// from one yet to run without going through the gate.
type topoEntry struct {
	once sync.Once
	net  atomic.Pointer[topology.Network]
	err  error
}

// topoCache memoizes Spec.Build results by (spec, seed). Safe for
// concurrent use; insert-only up to topoCacheCap.
type topoCache struct {
	mu      sync.Mutex
	entries map[topoKey]*topoEntry
}

// sharedTopoCache is the process-wide topology memo. All scenario runs
// and BuildTopologyCached go through it.
var sharedTopoCache = &topoCache{entries: make(map[topoKey]*topoEntry)}

// build returns the network for (spec, seed), constructing it at most
// once per key. topoSeed must be the seed of the topology stream derived
// from seed (the caller keeps the split so sibling streams are unaffected
// by cache hits); the stream is constructed only if this call builds.
//
// Failed builds do not stay cached: the error entry is evicted under the
// lock as soon as once.Do completes, so a failing spec neither poisons
// later requests for the same key (a transient failure may succeed on
// retry) nor permanently consumes one of the topoCacheCap slots. The cap
// check below does count in-flight entries — but with eviction those are
// only ever builds that will either succeed (a legitimate occupant) or
// fail and release the slot.
func (c *topoCache) build(spec topology.Spec, seed, topoSeed int64) (*topology.Network, error) {
	key := topoKey{spec, seed}
	if key != key {
		// A NaN RelationshipRatio equals nothing, itself included: the
		// key would be inserted on every call and never found again.
		return spec.Build(des.NewRNG(topoSeed))
	}
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		if len(c.entries) >= topoCacheCap {
			c.mu.Unlock()
			return spec.Build(des.NewRNG(topoSeed))
		}
		e = &topoEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		var net *topology.Network
		net, e.err = spec.Build(des.NewRNG(topoSeed))
		e.net.Store(net)
	})
	if e.err != nil {
		c.mu.Lock()
		// Only evict our own entry: a concurrent evict-then-rebuild may
		// already have installed a fresh entry under the same key.
		if c.entries[key] == e {
			delete(c.entries, key)
		}
		c.mu.Unlock()
	}
	return e.net.Load(), e.err
}

// len reports the number of memoized entries (for tests and benchmarks).
func (c *topoCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// topoStreamSeed derives the seed of the topology RNG stream for a
// scenario seed, exactly as Begin derives it off the root.
func topoStreamSeed(seed int64) int64 {
	topo, _, _ := trialSeeds(des.NewRNG(seed), "failure")
	return topo
}

// BuildTopologyCached returns the network a scenario with this topology
// spec and seed simulates on, memoized in the process-wide cache. The
// topology RNG stream is derived exactly as Run derives it, so runs and
// benchmarks share cache entries (a hit derives nothing). The returned
// network is shared and must be treated as immutable; Clone it first.
func BuildTopologyCached(spec topology.Spec, seed int64) (*topology.Network, error) {
	c := sharedTopoCache
	c.mu.Lock()
	e := c.entries[topoKey{spec, seed}]
	c.mu.Unlock()
	if e != nil && e.net.Load() != nil {
		return e.net.Load(), nil
	}
	return c.build(spec, seed, topoStreamSeed(seed))
}

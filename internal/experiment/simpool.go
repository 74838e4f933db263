package experiment

import (
	"sync"

	"bgpsim/internal/bgp"
	"bgpsim/internal/des"
	"bgpsim/internal/topology"
)

// simPoolCap bounds the slots a pool retains. A pool never holds more
// than were in use at once, so the bound only matters to a runner shared
// by more goroutines than this; past it, returned slots are dropped for
// the GC — a throughput loss, never a correctness one.
const simPoolCap = 32

// SimPool recycles what a trial would otherwise build and throw away: a
// LIFO free list of Slots, one per trial that was ever in flight at the
// same time. A simulator is a set of buffers, not a network —
// bgp.Simulator.Rebind rewires it onto whatever network the next trial
// runs on and rewinds every piece of run state in place — and a stream
// is a table that Reseed rewinds, so a pooled slot produces
// byte-identical results to a freshly constructed one; reuse only skips
// the allocation. A sweep's trials therefore share slots whether they
// share worlds (paired series) or, like every point of the paper's
// figures, have a world each: the sweep allocates the buffers of its
// largest trial once, and a pool that outlives the sweep hands the next
// one those buffers grown. Only a slot whose run completed goes back; one
// that failed or was cancelled mid-run is left to the GC. Safe for
// concurrent use; a nil *SimPool is valid and never pools. The pool is
// the runner: Sweep runs a grid and RunCell a lease of one cell on its
// slots. The caller owns it — a registry table or a looked-up experiment
// (internal/core), a dist worker, a churn Runner — and RunTrials makes
// one per call; every trial takes its slot through Begin, which takes
// none for a cancelled context.
type SimPool struct {
	mu   sync.Mutex
	free []*Slot
}

// Slot is what one in-flight trial holds, one goroutine's between Take
// and Put: the simulator it rebinds (see Bind) and the three streams its
// randomness derives from (see Derive). A sync.Pool would drop them at a
// collection, whenever that is.
type Slot struct {
	sim               *bgp.Simulator
	root, second, aux *des.RNG
}

// NewSimPool returns an empty pool.
func NewSimPool() *SimPool { return &SimPool{} }

// Take pops the most recently returned slot, or makes one (with no
// simulator yet) when the pool is empty or nil.
func (p *SimPool) Take() *Slot {
	if p != nil {
		p.mu.Lock()
		if n := len(p.free); n > 0 {
			s := p.free[n-1]
			p.free[n-1] = nil
			p.free = p.free[:n-1]
			p.mu.Unlock()
			return s
		}
		p.mu.Unlock()
	}
	return &Slot{root: des.NewRNG(0), second: des.NewRNG(0), aux: des.NewRNG(0)}
}

// Put offers s, whose run completed, for reuse; it is dropped when the
// pool is full.
func (p *SimPool) Put(s *Slot) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) < simPoolCap {
		p.free = append(p.free, s)
	}
}

// Bind returns the slot's simulator rebound to net and params, a state
// byte-identical to the bgp.New(net, params) a slot's first trial gets.
func (s *Slot) Bind(net *topology.Network, params bgp.Params) (*bgp.Simulator, error) {
	if s.sim != nil {
		return s.sim, s.sim.Rebind(net, params)
	}
	sim, err := bgp.New(net, params)
	s.sim = sim
	return sim, err
}

// trialSeeds is the one home of a trial's stream derivation: three
// splits off the root — topology, the trial's own stream ("failure" for
// a scenario, "churn" for a churn program), sim — in this order and
// unconditionally, because each advances the root: a topology served from
// the memo still costs its draw. root is as NewRNG or Reseed(seed) left it.
func trialSeeds(root *des.RNG, label string) (topo, second, sim int64) {
	topo = root.SplitSeed("topology")
	second = root.SplitSeed(label)
	return topo, second, root.SplitSeed("sim")
}

// Derive rewinds the slot's streams to what des.NewRNG(seed) and three
// Splits would build, allocating nothing. It returns the topology
// stream's seed (the stream is constructed only by a memo miss), the
// trial's own stream, valid until the next Derive, and the simulator's seed.
func (s *Slot) Derive(seed int64, label string) (topoSeed int64, stream *des.RNG, simSeed int64) {
	s.root.Reseed(seed)
	topoSeed, second, sim := trialSeeds(s.root, label)
	s.second.Reseed(second)
	s.aux.Reseed(sim)
	return topoSeed, s.second, s.aux.Int63()
}

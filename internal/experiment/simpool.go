package experiment

import (
	"sync"

	"bgpsim/internal/bgp"
)

// simPoolCap bounds the simulators a pool retains. A pool never holds
// more than were in use at once, so the bound only matters to a runner
// shared by more goroutines than this; past it, returned simulators are
// dropped for the GC — a throughput loss, never a correctness one.
const simPoolCap = 32

// SimPool recycles Simulators between trials: a LIFO free list, one
// simulator per trial that was ever in flight at the same time. A
// simulator is a set of buffers, not a network — bgp.Simulator.Rebind
// rewires it onto whatever network the next trial runs on and rewinds
// every piece of run state in place, so a pooled simulator produces
// byte-identical results to a freshly constructed one; reuse only skips
// the allocation. A sweep's trials therefore share simulators whether
// they share worlds (paired series) or, like every point of the paper's
// figures, have a world each: the sweep allocates the buffers of its
// largest trial once. Only a simulator whose run completed goes back;
// one that failed or was cancelled mid-run is left to the GC. Safe for
// concurrent use; a nil *SimPool is valid and never pools. Sweep,
// runTrials and CellRunner each own one, and sibling subsystems
// (internal/churn) that run trials outside the sweep machinery make
// theirs with NewSimPool.
type SimPool struct {
	mu   sync.Mutex
	free []*bgp.Simulator
}

// NewSimPool returns an empty pool.
func NewSimPool() *SimPool { return &SimPool{} }

// Take pops the most recently returned simulator, or nil when the pool
// is empty. The caller must Rebind it before use.
func (p *SimPool) Take() *bgp.Simulator {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.free)
	if n == 0 {
		return nil
	}
	sim := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	return sim
}

// Put offers sim, whose run completed, for reuse; it is dropped when the
// pool is full.
func (p *SimPool) Put(sim *bgp.Simulator) {
	if p == nil || sim == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) < simPoolCap {
		p.free = append(p.free, sim)
	}
}

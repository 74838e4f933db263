package bgp

import (
	"cmp"
	"slices"

	"bgpsim/internal/des"
	"bgpsim/internal/metrics"
	"bgpsim/internal/topology"
	"bgpsim/internal/trace"
)

// router is one BGP speaker, the paper's three machines in a row. Each is
// a station that owns the columns only it touches: receive (receive.go)
// the input queue, serial CPU, Adj-RIB-In and load accounting; decide
// (decide.go) the Loc-RIB and the decision process; flush (flush.go) the
// MRAI gates and the advertisement bookkeeping. This file keeps what
// spans them: identity, the sessions, the lifecycle, and
// finishProcessing, the one place that runs receive → decide → flush.
//
// Per-slot columns are indexed by peer slot, the rest by the
// Simulator-owned dest index (see Simulator.ndests). Routes are 4-byte
// interned routeRefs (see pathTab) and slot caches 2-byte slot indices,
// which keeps tables of ndests = ASes × PrefixesPerAS affordable; dense
// storage keeps steady-state churn allocation-free and lets reset rewind
// a router in O(occupied entries).
type router struct {
	id    NodeID
	as    ASN
	alive bool
	// ndests is the dest-index capacity all dense arrays are sized for.
	// int32 like the dest index itself, so it shares alive's word.
	ndests int32
	sim    *Simulator

	// The simulator's engine, collector, random stream and path table,
	// set once by newRouter: the hot paths read them without going
	// through sim.
	eng *des.Engine
	col *metrics.Collector
	rng *des.RNG
	tab *pathTab

	peers     []Peer // sorted by node id; an index is a slot
	peerAlive []bool

	receive receiveStation
	decide  decideStation
	flush   flushStation
}

// now returns the current simulated time.
func (r *router) now() des.Time { return r.eng.Now() }

// newRouter returns a router of sim that is not yet part of any network:
// rewire gives it its place in one, reset its state for a run.
func newRouter(sim *Simulator) *router {
	r := &router{
		sim: sim, eng: sim.eng, col: sim.col, rng: sim.rng, tab: &sim.tab,
	}
	r.receive.proc.r = r
	r.receive.adjIn.tab = r.tab
	r.receive.adjIn.spare = &sim.spare
	r.receive.inbox.slab = &sim.cells
	return r
}

// rewire makes r router id of net: its AS, its peers in node-id order
// (slot order drives tie-breaking iteration and message emission order)
// and every per-slot array at the new degree; Simulator.rewire fills in
// each peer's Back once every router is wired. A router keeps its
// storage from one network to the next: a slot's columns go to whichever
// peer has that slot now, and the route columns of slots past the new
// degree go to the simulator's spare list, where any router's next new
// column is taken from. reset must follow before the router is used.
func (r *router) rewire(id NodeID, net *topology.Network) {
	r.id, r.as = id, net.ASOf(id)
	r.peers = r.peers[:0]
	for _, nb := range net.Neighbors(id) {
		r.peers = append(r.peers, Peer{Node: nb.ID, AS: net.ASOf(nb.ID), Internal: nb.Internal})
	}
	slices.SortFunc(r.peers, func(a, b Peer) int { return cmp.Compare(a.Node, b.Node) })

	nslots := len(r.peers)
	r.peerAlive = fit(r.peerAlive, nslots)
	r.receive.adjIn.slots = r.sim.spare.refit(r.receive.adjIn.slots, nslots)
	r.flush.rewire(r, nslots)
}

// reset rewinds the router to its boot state for a run with parameters p
// over ndests destinations, all sessions up. Every array is fitted in
// the storage it has (see buffers.go), so repeated trials allocate
// almost nothing, on one network or on many.
func (r *router) reset(p Params, ndests int) {
	r.alive = true
	r.ndests = int32(ndests)
	fill(r.peerAlive, true)
	r.receive.reset(p, len(r.peers), ndests)
	r.decide.reset(p, ndests)
	r.flush.reset(p, len(r.peers), ndests)
}

// finishProcessing applies a processed work unit: receive folds it into
// the Adj-RIB-In, decide runs once per touched destination (the batching
// scheme's "process all updates for a destination together"), and flush
// advertises what changed. Then the CPU takes the next unit.
func (r *router) finishProcessing(batch []Update) {
	r.applyBatch(batch)
	changed := r.decideTouched()
	r.advertise(changed...)
	if r.receive.inbox.Len() > 0 {
		r.startProcessing()
	}
}

// advertise queues each changed destination for every live peer and
// runs a flush pass when there is any.
func (r *router) advertise(changed ...ASN) {
	for _, dest := range changed {
		r.markPendingAll(dest)
	}
	if len(changed) > 0 {
		r.flushAll()
	}
}

// kill removes the router from the simulation: it stops processing,
// sending, and receiving; pending events guard on alive. What it had
// queued is lost with it, the unit on its CPU included, so revive starts
// from an empty queue and an idle CPU.
func (r *router) kill() {
	r.alive = false
	r.receive.stop(r.eng)
	r.flush.stop(r.eng)
}

// revive restores a killed router to its boot state: empty RIBs, the
// queue kill emptied, fresh timers, all sessions down until peerUp
// re-establishes them.
func (r *router) revive() {
	r.alive = true
	r.receive.adjIn.reset()
	r.receive.anchor(r.now())
	r.decide.empty()
	r.decide.restart(r.sim.params)
	for slot := range r.peers {
		r.peerAlive[slot] = false
		r.flush.closeSlot(r.eng, slot)
	}
	r.flush.rewindGates()
}

// peerUp (re-)establishes the session on slot and queues the full table
// for advertisement to the peer — BGP's initial route exchange.
func (r *router) peerUp(slot int) {
	if !r.alive || r.peerAlive[slot] {
		return
	}
	r.peerAlive[slot] = true
	r.flush.openSlot(slot, r.decide.loc.has)
	r.tryFlush(slot)
}

// peerDown handles loss of the session on slot: every route learned from
// that peer is invalidated, decisions rerun, and resulting updates and
// withdrawals propagate to the surviving peers.
func (r *router) peerDown(slot int) {
	if !r.alive || !r.peerAlive[slot] {
		return
	}
	peer := r.peers[slot]
	r.peerAlive[slot] = false
	r.sim.emit(trace.Event{
		At: r.now(), Kind: trace.KindSessionDown, Node: r.id,
		Peer: peer.Node, Dest: -1,
	})
	r.flush.closeSlot(r.eng, slot)

	affected := r.receive.adjIn.destsViaSlot(slot, r.sim.touchedScratch[:0])
	r.sim.touchedScratch = affected
	changed := affected[:0]
	for _, dest := range affected {
		r.receive.adjIn.removeSlot(slot, dest)
		if r.decide.incremental && r.decide.bestSlot[dest] != int16(slot) {
			// Losing a route that was not the winner cannot change the
			// decision, which makes session loss O(routes via the dead peer
			// that were best), not O(affected destinations × degree).
			continue
		}
		if r.runDecision(dest) {
			changed = append(changed, dest)
		}
	}
	r.advertise(changed...)
}

// normalizeWindow canonicalizes the router's residual phase-1 transients
// when the measurement window opens (see Simulator.normalizeWindow): MRAI
// gates and policy, flap-gate counters ("since the window opened") and
// damper, and load accounting all restart at time at. RIBs, advertised
// state and sessions carry the converged routing state forward.
func (r *router) normalizeWindow(at des.Time) {
	if !r.alive {
		return
	}
	r.flush.rewindGates()
	r.decide.restart(r.sim.params)
	r.receive.anchor(at)
}

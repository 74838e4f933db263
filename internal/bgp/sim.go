package bgp

import (
	"fmt"
	"math"
	"sort"
	"time"

	"bgpsim/internal/des"
	"bgpsim/internal/metrics"
	"bgpsim/internal/mrai"
	"bgpsim/internal/snapshot"
	"bgpsim/internal/topology"
	"bgpsim/internal/trace"
)

// Simulator wires a topology, the BGP routers, and the event engine into
// one runnable simulation. Typical use:
//
//	sim, _ := New(net, params)
//	sim.ConvergeInitial()            // install the converged state
//	failAt := sim.Now() + settle
//	sim.ScheduleFailure(failAt, nodes)
//	sim.Run()                        // re-convergence
//	delay := sim.Collector().ConvergenceDelay()
//
// A Simulator is reusable: Rebind rewinds it to time zero with a fresh
// parameter set on any network, the one it has included, retaining
// every buffer that is large enough, so repeated trials skip nearly all
// of the per-trial setup allocation that bgp.New pays.
//
// The Simulator owns the dense destination-index table: destination
// prefix ids are dest = AS·PrefixesPerAS + i with dense AS numbering
// (every in-tree generator numbers ASes 0..k-1), so a prefix id is used
// directly as the index into every per-router dense array. ndests is
// the table size, (maxAS+1)·PrefixesPerAS.
type Simulator struct {
	net     *topology.Network
	params  Params
	eng     *des.Engine
	rng     *des.RNG
	routers []*router
	col     *metrics.Collector
	origins []NodeID // dense: destination prefix -> originating router, -1 none
	nprefix int      // prefixes per AS
	ndests  int      // dense dest-index table size
	tracer  trace.Tracer

	originTasks []originTask // Start's events, one per destination

	lanes [2]lane  // the updates in flight on external and on internal sessions
	cells cellSlab // the updates queued in every router's inbox

	// spare holds the RIB columns no router slot owns (see colPool).
	spare colPool

	// tab interns every path the simulation creates; all RIB storage and
	// every in-flight update hold 4-byte routeRefs into it. Rewound by
	// Rebind once every reference is gone.
	tab pathTab

	// Path-table collection (see sweep): the table size at which the next
	// sweep is due, the RIB cells one visits (what a sweep costs however
	// little it finds), and this trial's exact sweep counters.
	sweepAt  uint32
	ribCells int
	swept    PathStats

	// snap solves the converged state ConvergeInitial installs, one
	// destination AS at a time; warmRefs (per node) and warmChain are the
	// install's scratch (warmstart.go). Rebind fits all three.
	snap      snapshot.Solver
	warmRefs  []routeRef
	warmChain []int32

	// Destination lists the routers share, because the simulator runs on
	// one goroutine and each list is consumed before its next user takes
	// it: no router's tryFlush, finishProcessing or peerDown runs inside
	// another's (deliveries and timers are engine events), and neither of
	// the last two inside the other. One high-water per simulator, not per
	// router. Every user truncates before use.
	destsScratch   []ASN // tryFlush's sorted pending-destination list
	touchedScratch []ASN // decideTouched's touched and peerDown's affected destinations
}

// laneEntry is one update in flight: its (at, seq) key in the engine's
// order, the receiving router, and the update, whose Slot names the
// sender. It holds no pointer, so the collector never scans a lane.
type laneEntry struct {
	at  des.Time
	seq uint64
	to  int32
	u   Update
}

// lane is the FIFO of the updates in flight on one session kind, a
// des.Lane: every session of a kind has one delay (DESIGN.md §6,
// Links), so its updates arrive in the order they were sent. They
// fill chunks that double from laneChunkMin to laneChunkMax entries, from
// chunks[0][head] to last[tail-1], last being the newest chunk; a chunk
// the head has left waits in spare for the tail, so no entry is copied.
type lane struct {
	sim        *Simulator
	chunks     [][]laneEntry
	last       []laneEntry
	spare      [][]laneEntry
	head, tail int
	n, made    int // entries in flight, entries carved
	dropped    int // updates that arrived at a dead endpoint since Rebind (Clear)
}

const laneChunkMin, laneChunkMax = 16, 256

// deliver puts u on the link to peer p, to arrive after the session's
// delay. Under refInvariants it asserts that the lane stays in order.
func (s *Simulator) deliver(p *Peer, u Update) {
	l := &s.lanes[0]
	if p.Internal {
		l = &s.lanes[1]
	}
	at, seq := s.eng.Stamp(p.Delay)
	if s.params.ref&refInvariants != 0 && l.n > 0 && at < l.last[l.tail-1].at {
		panic(fmt.Sprintf("bgp: update to router %d due at %v behind its lane's tail", p.Node, at))
	}
	if l.tail == len(l.last) {
		l.grow()
	}
	l.push(laneEntry{at: at, seq: seq, to: int32(p.Node), u: u})
}

// push appends e at the tail, which grow has made room for.
func (l *lane) push(e laneEntry) {
	l.last[l.tail] = e
	l.tail++
	l.n++
}

// grow starts a new tail chunk: a spare one, or a fresh one.
func (l *lane) grow() {
	if k := len(l.spare); k > 0 {
		l.last, l.spare = l.spare[k-1], l.spare[:k-1]
	} else {
		l.last = make([]laneEntry, min(max(l.made, laneChunkMin), laneChunkMax))
		l.made += len(l.last)
	}
	l.chunks = append(l.chunks, l.last)
	l.tail = 0
}

// Head returns the key of the first update in flight.
func (l *lane) Head() (des.Time, uint64, bool) {
	if l.n == 0 {
		return 0, 0, false
	}
	e := &l.chunks[0][l.head]
	return e.at, e.seq, true
}

// Fire delivers the first update in flight.
func (l *lane) Fire() {
	c := l.chunks[0]
	e := c[l.head]
	l.head++
	l.n--
	if l.n == 0 { // the head caught up with the tail, in the one chunk left
		l.head, l.tail = 0, 0
	} else if l.head == len(c) {
		l.spare = append(l.spare, c)
		l.chunks = append(l.chunks[:0], l.chunks[1:]...)
		l.head = 0
	}
	to := l.sim.routers[e.to]
	// The link is down if either endpoint died while in flight.
	if !to.alive || !l.sim.routers[to.peers[e.u.Slot].Node].alive {
		l.dropped++
		return
	}
	to.enqueue(e.u)
}

// Len returns the number of updates in flight.
func (l *lane) Len() int { return l.n }

// Clear drops every update in flight and the drop count.
func (l *lane) Clear() {
	l.spare = append(l.spare, l.chunks...)
	l.chunks, l.last = l.chunks[:0], nil
	l.head, l.tail, l.n, l.dropped = 0, 0, 0, 0
}

// forEachRef passes fn the ref of every update in flight and returns how
// many there are.
func (l *lane) forEachRef(fn func(*routeRef)) int {
	left, i := l.n, l.head
	for _, c := range l.chunks {
		for ; i < len(c) && left > 0; i, left = i+1, left-1 {
			fn(&c[i].u.Ref)
		}
		i = 0
	}
	return l.n
}

// emit delivers an event to the configured tracer, if any. Callers guard
// expensive event construction with `if s.tracer != nil` themselves when
// it matters; the event structs here are stack values, so the overhead
// of an unconditional call is one branch.
func (s *Simulator) emit(e trace.Event) {
	if s.tracer != nil {
		s.tracer.Trace(e)
	}
}

// New builds a simulator over net. The network must be non-empty; every
// AS originates PrefixesPerAS prefixes (default one) at its
// lowest-numbered router. New is Rebind on a simulator that has no
// buffers yet, so a fresh simulator and a reused one are states of the
// same code path.
func New(net *topology.Network, params Params) (*Simulator, error) {
	s := &Simulator{
		eng: des.NewEngine(),
		rng: des.NewRNG(params.Seed),
		col: metrics.NewCollector(0),
	}
	for i := range s.lanes {
		s.lanes[i].sim = s
		s.eng.AddLane(&s.lanes[i])
	}
	if err := s.Rebind(net, params); err != nil {
		return nil, err
	}
	return s, nil
}

// Rebind rewinds the simulator to time zero for a new run with the given
// parameters (including a new Seed) on net, which may be any network:
// the one the simulator already runs on, or one of another size, wiring
// and AS structure. RIBs, advertisement bookkeeping, MRAI gates, inboxes,
// the metrics collector, the RNG, and the DES clock all return to their
// post-New state — a rebound simulator behaves byte-identically to
// bgp.New(net, params). Rebind must not be called while a run is in
// progress (events pending in the engine are discarded). A refused
// network or parameter set leaves the simulator as it was.
//
// What a simulator owns is buffers, not a network: the engine's calendar
// and event free list, the path table's chunks and index, the lanes'
// chunks, the inboxes' one cell slab, the spare RIB columns, the routers
// with their RIB columns and bitsets.
// Rebind keeps each of them wherever its capacity suffices (see
// buffers.go), which is what makes a sweep cheap whether its trials
// share a world or, like every point of the paper's figures, have one
// each. Only a network other than the current one (compared by pointer;
// networks are immutable once simulated on) pays for rewiring the
// routers and a check of its sessions (topology.Network.CheckSessions).
// Nothing that depends on the network is cached past that: the origins
// and the router wiring are rebuilt, every peer's delay and route class
// are set from params, the collector is resized, and the snapshot solver
// is refitted to the network and params.Policy.
func (s *Simulator) Rebind(net *topology.Network, params Params) error {
	if err := params.Validate(); err != nil {
		return err
	}
	if net.NumNodes() == 0 {
		return fmt.Errorf("bgp: empty network")
	}
	nprefix := max(1, params.PrefixesPerAS)
	ndests, err := destSpace(net, nprefix)
	if err != nil {
		return err
	}
	if net != s.net {
		if err := net.CheckSessions(); err != nil {
			return err
		}
		s.rewire(net)
	}
	s.params = params
	s.nprefix = nprefix
	s.tracer = params.Tracer
	s.rng.Reseed(params.Seed)
	s.eng.Reset()
	s.col.Resize(net.NumNodes())
	// Safe exactly here: the engine drain above discarded in-flight
	// updates and the router resets below clear every RIB reference.
	s.tab.reset()

	s.ndests = ndests
	s.spare.fit(ndests)
	s.origins = fit(s.origins, ndests)
	fill(s.origins, -1)
	for id := 0; id < net.NumNodes(); id++ {
		as := net.ASOf(id)
		for i := 0; i < s.nprefix; i++ {
			dest := as*s.nprefix + i
			if cur := s.origins[dest]; cur < 0 || id < cur {
				s.origins[dest] = id
			}
		}
	}

	for _, r := range s.routers {
		for slot := range r.peers {
			p := &r.peers[slot]
			p.Delay, p.Class = params.IntDelay, 0
			if !p.Internal {
				p.Delay, p.Class = params.ExtDelay, params.Policy.Class(r.id, p.Node)
			}
		}
		r.reset(params, s.ndests)
	}
	s.cells.rewind()
	s.swept = PathStats{}
	s.ribCells = (2*net.NumNodes() + 4*net.NumLinks()) * ndests
	s.armSweep(s.tab.size())
	s.snap.Bind(net, snapshot.Config{Policy: params.Policy})
	s.warmRefs = fit(s.warmRefs, net.NumNodes())
	return nil
}

// rewire points the simulator at net: one router per node, each wired to
// its neighbours (router.rewire), then every peer given its Back, the
// slot its router holds at that peer (links are symmetric, so there
// always is one). Routers are kept from one network to the next, with
// everything they own; those a smaller network has no node for wait in
// the slice's spare capacity.
func (s *Simulator) rewire(net *topology.Network) {
	s.net = net
	s.routers = refit(s.routers, net.NumNodes())
	for id, r := range s.routers {
		if r == nil {
			r = newRouter(s)
			s.routers[id] = r
		}
		r.rewire(id, net)
	}
	for _, r := range s.routers {
		for slot := range r.peers {
			p := &r.peers[slot]
			back, _ := findPeer(s.routers[p.Node].peers, r.id)
			p.Back = int32(back)
		}
	}
}

// destSpace returns the size of the dense destination-index table,
// (maxAS+1)·nprefix. Topologies are outside input, and paths and updates
// pack node ids and destination indices into 32 bits and AS numbers into
// 24, so what would not fit is refused here, before anything is sized by it.
func destSpace(net *topology.Network, nprefix int) (int, error) {
	const limit = math.MaxInt32
	if net.NumNodes() > limit {
		return 0, fmt.Errorf("bgp: %d nodes do not fit the packed 32-bit route encoding", net.NumNodes())
	}
	maxAS := 0
	for id := 0; id < net.NumNodes(); id++ {
		as := net.ASOf(id)
		if as < 0 || as > maxASN {
			return 0, fmt.Errorf("bgp: AS number %d of node %d does not fit the packed 32-bit route encoding", as, id)
		}
		if as > maxAS {
			maxAS = as
		}
	}
	if maxAS+1 > limit/nprefix {
		return 0, fmt.Errorf("bgp: %d ASes x %d prefixes per AS do not fit the packed 32-bit route encoding", maxAS+1, nprefix)
	}
	return (maxAS + 1) * nprefix, nil
}

// ASOfDest returns the AS that originates destination prefix dest.
func (s *Simulator) ASOfDest(dest int) ASN { return dest / s.nprefix }

// originationSpread is the interval Start staggers originations over.
// Only the cold start reads it (the refColdStart reference and tests):
// every trial begins at the installed fixpoint and originates nothing.
const originationSpread = 100 * time.Millisecond

// Start schedules the origination of every prefix, staggered uniformly
// over originationSpread. Destinations are scheduled in ascending order
// (the dense origin table's natural order).
func (s *Simulator) Start() {
	s.originTasks = fit(s.originTasks, s.ndests)
	for dest, id := range s.origins {
		if id < 0 {
			continue
		}
		at := s.rng.UniformDuration(0, originationSpread)
		s.originTasks[dest] = originTask{r: s.routers[id], dest: dest}
		s.eng.ScheduleRunnerAt(at, &s.originTasks[dest])
	}
}

// originTask is the des.Runner for one origination event, carved from an
// array the simulator keeps across Rebind. It is indexed by destination,
// so a pending event's task is only ever rewritten with what it holds.
type originTask struct {
	r    *router
	dest ASN
}

func (t *originTask) Run() { t.r.originate(t.dest) }

// Run drains the event queue (to quiescence) and returns any engine error.
func (s *Simulator) Run() error { return s.eng.Run() }

// SetCancel installs (or with nil removes) a cancellation probe on the
// event engine. Run variants poll it periodically and abort with
// des.ErrCanceled when it reports true. Install it after Rebind (which
// clears the probe) and before Run; the probe never alters results of
// runs that complete, only whether a run completes.
func (s *Simulator) SetCancel(cancel func() bool) { s.eng.SetCancel(cancel) }

// RunUntil runs events up to the deadline.
func (s *Simulator) RunUntil(deadline des.Time) error { return s.eng.RunUntil(deadline) }

// Now returns the current simulated time.
func (s *Simulator) Now() des.Time { return s.eng.Now() }

// Collector exposes the metrics collector.
func (s *Simulator) Collector() *metrics.Collector { return s.col }

// normalizeWindow canonicalizes every piece of run state that could
// carry phase-1 residue into the measurement window: the random stream
// is reseeded from Params.Seed, and every live router expires its MRAI
// gates, restarts its flap counters, and rebuilds its policy, damper,
// and load accounting (router.normalizeWindow). It runs at every window
// open, which makes the post-failure dynamics a pure function of
// (topology, converged routing state, failure set, parameters, seed).
// That contract is what lets the installed start reproduce the
// event-simulated one (refColdStart) byte for byte: the two arrive at
// the window with identical routing state and, after normalization,
// identical everything else.
func (s *Simulator) normalizeWindow(at des.Time) {
	s.rng.Reseed(s.params.Seed)
	for _, r := range s.routers {
		r.normalizeWindow(at)
	}
}

// ScheduleFailure kills the given nodes at time at and opens the metrics
// measurement window there, normalizing away any phase-1 residue first
// (see normalizeWindow). Surviving neighbors run session-down processing
// after DetectDelay.
func (s *Simulator) ScheduleFailure(at des.Time, nodes []int) {
	failed := append([]int(nil), nodes...)
	sort.Ints(failed)
	s.eng.ScheduleAt(at, func() {
		s.col.OpenWindow(at)
		s.normalizeWindow(at)
		for _, id := range failed {
			if id >= 0 && id < len(s.routers) {
				s.routers[id].kill()
				s.emit(trace.Event{At: at, Kind: trace.KindNodeFailure, Node: id, Peer: -1, Dest: -1})
			}
		}
		if s.params.OracleMRAI != nil {
			s.applyOracle(len(failed))
		}
		// Session-down processing at surviving peers.
		for _, id := range failed {
			if id < 0 || id >= len(s.routers) {
				continue
			}
			for _, peer := range s.routers[id].peers {
				nb := s.routers[peer.Node]
				if !nb.alive {
					continue
				}
				s.sessionDown(at, nb, int(peer.Back))
			}
		}
	})
}

// ScheduleLinkFailure tears down the sessions on the given links at time
// at without killing any router — the link-only failure mode the paper
// sets aside as unlikely for large-scale disasters but which matters for
// fiber cuts. Each link is a pair of node IDs; unknown or already-down
// sessions are ignored. The metrics window opens at the failure time.
func (s *Simulator) ScheduleLinkFailure(at des.Time, links [][2]int) {
	cut := append([][2]int(nil), links...)
	s.eng.ScheduleAt(at, func() {
		s.col.OpenWindow(at)
		s.normalizeWindow(at)
		for _, l := range cut {
			a, b := l[0], l[1]
			if a < 0 || b < 0 || a >= len(s.routers) || b >= len(s.routers) {
				continue
			}
			ra, rb := s.routers[a], s.routers[b]
			slotAB, ok := findPeer(ra.peers, b)
			if !ok {
				continue
			}
			s.sessionDown(at, ra, slotAB)
			s.sessionDown(at, rb, int(ra.peers[slotAB].Back))
		}
	})
}

// sessionDown runs r's session-down processing for slot DetectDelay after
// the failure at time at: at once when there is no delay.
func (s *Simulator) sessionDown(at des.Time, r *router, slot int) {
	if s.params.DetectDelay > 0 {
		s.eng.ScheduleAt(at+s.params.DetectDelay, func() { r.peerDown(slot) })
	} else {
		r.peerDown(slot)
	}
}

// ScheduleRecovery revives the given (previously failed) routers at time
// at. Revived routers come back with empty RIBs — as after a reboot —
// re-originate their prefixes where applicable, and re-establish sessions
// with every live neighbor; both sides then exchange full tables, the
// standard BGP session-establishment behaviour.
func (s *Simulator) ScheduleRecovery(at des.Time, nodes []int) {
	revived := append([]int(nil), nodes...)
	sort.Ints(revived)
	s.eng.ScheduleAt(at, func() {
		// Phase 1: bring the routers back with clean state.
		for _, id := range revived {
			if id < 0 || id >= len(s.routers) {
				continue
			}
			r := s.routers[id]
			if r.alive {
				continue
			}
			r.revive()
			s.emit(trace.Event{At: at, Kind: trace.KindNodeRecovery, Node: id, Peer: -1, Dest: -1})
		}
		// Phase 2: re-originate prefixes whose origin router came back.
		for _, id := range revived {
			if id < 0 || id >= len(s.routers) || !s.routers[id].alive {
				continue
			}
			as := s.net.ASOf(id)
			for i := 0; i < s.nprefix; i++ {
				dest := as*s.nprefix + i
				if dest < len(s.origins) && s.origins[dest] == id {
					s.routers[id].originate(dest)
				}
			}
		}
		// Phase 3: re-establish sessions where both endpoints are alive.
		for _, id := range revived {
			if id < 0 || id >= len(s.routers) || !s.routers[id].alive {
				continue
			}
			r := s.routers[id]
			for slot, peer := range r.peers {
				nb := s.routers[peer.Node]
				if !nb.alive {
					continue
				}
				r.peerUp(slot)
				nb.peerUp(int(peer.Back))
			}
		}
	})
}

// applyOracle switches every surviving Settable policy to the MRAI the
// oracle table prescribes for this failure extent. Like the dynamic
// scheme, the change takes effect at each router's next timer restart.
func (s *Simulator) applyOracle(failedCount int) {
	d := s.params.OracleMRAI(float64(failedCount) / float64(len(s.routers)))
	for _, r := range s.routers {
		if !r.alive {
			continue
		}
		if settable, ok := r.flush.policy.(mrai.Settable); ok {
			settable.Set(d)
		}
	}
}

// Alive reports whether node id survived.
func (s *Simulator) Alive(id NodeID) bool {
	return id >= 0 && id < len(s.routers) && s.routers[id].alive
}

// LocPath returns node id's current best path to dest, materialized as
// a fresh slice, and whether one exists.
func (s *Simulator) LocPath(id NodeID, dest ASN) (Path, bool) {
	if id < 0 || id >= len(s.routers) {
		return nil, false
	}
	if dest < 0 || dest >= int(s.routers[id].ndests) {
		return nil, false
	}
	ref, ok := s.routers[id].decide.loc.getRef(dest)
	if !ok {
		return nil, false
	}
	return s.routers[id].tab.path(ref), true
}

// Destinations returns the sorted list of originated prefixes. With
// PrefixesPerAS == 1 (the default) prefix ids equal AS numbers; otherwise
// AS a originates prefixes a*k .. a*k+k-1.
func (s *Simulator) Destinations() []int {
	out := make([]int, 0, len(s.origins))
	for dest, id := range s.origins {
		if id >= 0 {
			out = append(out, dest)
		}
	}
	return out
}

// OriginOf returns the router originating destination prefix dest.
func (s *Simulator) OriginOf(dest int) (NodeID, bool) {
	if dest < 0 || dest >= len(s.origins) || s.origins[dest] < 0 {
		return 0, false
	}
	return s.origins[dest], true
}

// Network returns the topology the simulator runs on.
func (s *Simulator) Network() *topology.Network { return s.net }

// PolicyLevelHistogram returns, for dynamic-MRAI runs, how many live
// routers sit at each ladder level (diagnostic).
func (s *Simulator) PolicyLevelHistogram() map[int]int {
	h := make(map[int]int)
	for _, r := range s.routers {
		if !r.alive {
			continue
		}
		type leveler interface{ Level() int }
		if lv, ok := r.flush.policy.(leveler); ok {
			h[lv.Level()]++
		}
	}
	return h
}

// PathStats describes the interned-path table footprint and what
// collecting it has cost this trial (see Simulator.sweep).
type PathStats struct {
	// Registered counts paths currently registered: those the last sweep
	// kept and those registered since.
	Registered int
	// Live counts the registered paths a sweep would keep right now: the
	// distinct refs held anywhere outside the table — RIB storage, queued
	// and in-flight updates — and the ancestors their nodes name.
	Live int
	// Compactions counts the sweeps performed since the last Rebind.
	Compactions int
	// Reclaimed counts the paths those sweeps freed.
	Reclaimed int
	// SweptCells counts the ref cells those sweeps visited to mark the
	// roots, one visit per cell per sweep: what the collection cost, in
	// the unit that does not depend on the host.
	SweptCells int
}

// The roots of the path table: between events a routeRef lives in a RIB
// cell, in an update that is queued, being processed or in flight, and
// nowhere else. forEachRefColumn and forEachInFlight reach every one of
// them exactly once, which is all a sweep needs: nothing moves, so the
// holders are only read.

// forEachRefColumn passes fn every column of RIB storage — Loc-RIB refs
// and export caches, Adj-RIB-In columns, the advertised bookkeeping, 0
// in the empty cells — and returns how many cells that is. Whole
// columns, because cells outnumber everything else a sweep touches: the
// caller loops over the refs itself instead of being called per cell.
func (s *Simulator) forEachRefColumn(fn func([]routeRef)) (cells int) {
	for _, r := range s.routers {
		fn(r.decide.loc.refs)
		fn(r.decide.loc.exports)
		cells += len(r.decide.loc.refs) + len(r.decide.loc.exports)
		for _, col := range r.receive.adjIn.slots {
			fn(col.refs)
			cells += len(col.refs)
		}
		for _, col := range r.flush.advertised {
			fn(col.refs)
			cells += len(col.refs)
		}
	}
	return cells
}

// forEachInFlight passes fn the ref of every update that has been sent
// and not yet applied (0 for a withdrawal) and returns how many there
// are: queued in an inbox, in the batch a busy router is processing
// (which aliases storage the inbox does not visit), on a link in a
// lane. A killed router holds none — kill empties its inbox and
// drops the unit on its CPU — so at quiescence the count is zero.
func (s *Simulator) forEachInFlight(fn func(*routeRef)) (n int) {
	for _, r := range s.routers {
		in := &r.receive
		in.inbox.forEachRef(fn)
		for i := range in.proc.batch {
			fn(&in.proc.batch[i].Ref)
		}
		n += in.inbox.Len() + len(in.proc.batch)
	}
	return n + s.lanes[0].forEachRef(fn) + s.lanes[1].forEachRef(fn)
}

// markRoots marks, in the table's mark set, every path a sweep
// would keep and returns how many there are and how many cells it
// visited to find them.
func (s *Simulator) markRoots() (live, cells int) {
	t := &s.tab
	t.clearMarks()
	cells = s.forEachRefColumn(t.markColumn) + s.forEachInFlight(t.mark)
	return t.closeMarks(), cells
}

// PathTableStats reports the path-table footprint (see PathStats). Like
// a sweep it must run between events.
func (s *Simulator) PathTableStats() PathStats {
	ps := s.swept
	ps.Registered = s.tab.size()
	ps.Live, _ = s.markRoots()
	return ps
}

// sweepFloor is the fewest registrations between two sweeps: below it a
// table is a few chunks and a sweep has nothing worth its walk.
const sweepFloor = 1 << 13

// sweepCellsPerPath bounds what the collector may cost where cells far
// outnumber paths (multi-prefix tables): a sweep visits every RIB cell
// once, so it waits for one new path per this many cells.
const sweepCellsPerPath = 32

// armSweep sets the table size at which the next sweep runs, live being
// what the table holds that is known to be needed: half as many new
// registrations again (which bounds the table to about 1.5 times its
// peak live set and the work per registration to a constant), and never
// fewer than the floor or the cell term. These are constants, not knobs;
// refCompactAlways, the test seam, sweeps at every safe point.
func (s *Simulator) armSweep(live int) {
	if s.params.ref&refCompactAlways != 0 {
		s.sweepAt = 0
		return
	}
	s.sweepAt = uint32(min(uint64(live+max(live/2, sweepFloor, s.ribCells/sweepCellsPerPath)), math.MaxUint32))
}

// sweep collects the path table: it marks every ref held anywhere (the
// roots above), frees the rest where they lie, and sets the next
// threshold from what survived. The exploration after a failure
// registers several times the paths anything ends up pointing at, so
// this is what keeps a trial's memory a function of its live routing
// state and not of how long or how violently it ran. A surviving path
// keeps its ref and nothing orders by ref, so a sweep is
// behavior-neutral.
//
// Invariant: no routeRef in a Go local across a sweep, because a freed
// ref is handed out again for another path. classify, runDecision,
// tryFlush, desiredAdvert and installAS all hold refs in locals, which is
// why prepend never sweeps; the one caller is the entry of procTask.Run,
// an event boundary at which nothing has been read yet.
func (s *Simulator) sweep() {
	t := &s.tab
	before := t.size()
	live, cells := s.markRoots()
	t.release(live)
	s.swept.Compactions++
	s.swept.Reclaimed += before - live
	s.swept.SweptCells += cells
	s.armSweep(live)
}

// SettleMargin is the idle gap between the converged state and failure
// injection: the failure of an installed start fires at SettleMargin.
const SettleMargin = 5 * time.Second

// ConvergeAndFail is the standard experiment flow: install the
// converged state (ConvergeInitial), inject the failure SettleMargin
// later, re-converge, and return the post-failure convergence delay.
func (s *Simulator) ConvergeAndFail(nodes []int) (time.Duration, error) {
	if err := s.ConvergeInitial(); err != nil {
		return 0, err
	}
	s.ScheduleFailure(s.Now()+SettleMargin, nodes)
	if err := s.Run(); err != nil {
		return 0, fmt.Errorf("re-convergence: %w", err)
	}
	return s.Collector().ConvergenceDelay(), nil
}

package bgp

import (
	"cmp"
	"math"
	"slices"
	"time"

	"bgpsim/internal/des"
	"bgpsim/internal/metrics"
	"bgpsim/internal/mrai"
	"bgpsim/internal/topology"
	"bgpsim/internal/trace"
)

// router is one BGP speaker: RIBs, per-peer MRAI timers, a serial CPU fed
// by the configured input queue, and the advertisement bookkeeping that
// suppresses no-op updates.
//
// All per-destination state is held in dense arrays indexed by the
// Simulator-owned dest index (see Simulator.ndests): the Adj-RIB-In and
// Loc-RIB, the per-slot advertised refs, the pending bitsets, the
// per-destination MRAI gates, and the flap counters. Routes are stored as
// 4-byte interned routeRefs (see pathTab) and the per-destination slot
// caches as 2-byte slot indices, so the per-router footprint is a few
// bytes per destination plus 4 bytes per (advertising peer, destination)
// — the packed encoding that keeps ndests = ASes × PrefixesPerOrigin
// tables affordable. Dense storage keeps steady-state routing churn
// allocation-free and lets reset rewind a router in O(occupied entries)
// for simulator reuse.
type router struct {
	id    NodeID
	as    ASN
	alive bool
	sim   *Simulator

	// The simulator's engine, collector, random stream and path table,
	// set once by newRouter: the hot paths read them without going
	// through sim.
	eng *des.Engine
	col *metrics.Collector
	rng *des.RNG
	tab *pathTab

	peers     []Peer
	peerAlive []bool
	slotOf    map[NodeID]int
	// slotDense is the hot-path twin of slotOf: node id -> peer slot + 1
	// (0 = not a peer), indexed directly. The map lookup per arriving
	// update was ~5% of the storm profile; the dense array is one load.
	// nil when the topology exceeds slotDenseMax nodes (the array is
	// quadratic in fleet memory: nodes × routers).
	slotDense []int16

	ndests     int // dest-index capacity all dense arrays are sized for
	adjIn      *adjRIBIn
	loc        locRIB
	originates bitset

	// Per-slot advertisement state.
	advertised []refSlot    // last announced ref per destination (0 = withdrawn/never)
	pending    []bitset     // destinations needing re-advertisement (drained in ascending order)
	nextSend   []des.Time   // per-peer MRAI gate: announcements allowed at/after this time
	destGate   [][]des.Time // per-destination gates (PerDestinationMRAI ablation); zero = open
	flushEv    []*des.Event // scheduled deferred flush per slot (per-slot mode)

	// Storm fast-lane send-path state (see ARCHITECTURE.md "Storm fast
	// lane"). blocked marks, per slot, pending destinations that tryFlush
	// examined and found MRAI-gate-blocked; they are skipped on later
	// passes until a gate can have opened (per-peer gate reached, or the
	// deferred flush fires) or the destination's desired advertisement
	// may have changed (markPendingAll clears the bit). Columns are
	// allocated lazily on a slot's first blocked destination. Outside
	// the refPerSlotFlush reference path the per-slot flushEv events
	// become virtual timers: flushAt holds each slot's pending retry
	// time (-1 = none) and flushStamp the engine sequence number
	// reserved when that retry was recorded — together, the exact
	// (at, seq) key the per-slot event would occupy in the queue. One
	// real event (coalEv) is kept at the minimum virtual key (coalAt,
	// coalSeq) and fires one slot per pop, so the executed schedule is
	// identical to the per-slot reference's, event for event.
	blocked    []bitset
	flushAt    []des.Time
	flushStamp []uint64
	coalEv     *des.Event
	coalAt     des.Time
	coalSeq    uint64
	coal       coalTask

	inbox        Inbox
	inboxQueue   QueueDiscipline // discipline inbox was built for (reset reuses on match)
	inboxDiscard bool            // BatchDiscardStale inbox was built for
	busy         bool

	policy mrai.Policy

	// Reusable scratch and pre-allocated event tasks. The simulation hot
	// loop (enqueue -> process -> decide -> flush) runs millions of times
	// per experiment; everything here exists so that steady-state
	// iterations allocate nothing.
	proc            procTask    // the single in-flight CPU-completion task
	flushTasks      []flushTask // per-slot deferred-flush tasks
	destsScratch    []ASN       // tryFlush's sorted pending-destination list
	affectedScratch []ASN       // peerDown's sorted affected-destination list
	touched         bitset
	changed         []ASN

	// Load accounting for mrai.Snapshot.
	busyAccum     time.Duration
	busyStart     des.Time
	lastSnapTime  des.Time
	lastSnapBusy  time.Duration
	msgsSinceSnap int

	// flapCount drives the Deshpande–Sikdar flap gate. Nil unless
	// Params.FlapGate > 0 — no other scheme reads it, and an always-on
	// per-dest counter is real memory at multi-prefix scale. int16 with
	// saturation: the gate compares against Params.FlapGate (single
	// digits in the paper), so saturating at 32767 can only matter for
	// absurd gate settings.
	flapCount []int16

	// damper holds RFC 2439 flap-damping state (nil when disabled).
	damper *damper

	// Incremental decision-process state. bestSlot caches, per
	// destination, the peer slot the current Loc-RIB entry was learned
	// from (bestNone = no route, bestSelf = locally originated); it is
	// maintained on every Loc-RIB mutation, which upholds the invariant
	// the fast path relies on: with damping disabled, the Loc-RIB always
	// equals decide(Adj-RIB-In), so bestSlot is exactly the slot a full
	// scan would pick. It doubles as the provenance of the packed Loc-RIB
	// entry (locEntryAt derives from/fromInternal through it). workSlot
	// is the within-batch working copy (lazily initialized from bestSlot
	// on a destination's first touch, tracked by the touched bitset),
	// advanced by classify as the batch applies; scanNeeded flags
	// destinations whose outcome cannot be resolved without the full
	// decide scan. incremental is false under damping (suppression decays
	// with wall-clock time, invalidating the cache) and under the
	// refFullScan reference path. Slot indices are int16: a router with
	// 32k+ peers is far beyond any modeled topology.
	incremental bool
	bestSlot    []int16
	workSlot    []int16
	scanNeeded  bitset

	// Second-best cache (active only alongside the incremental path,
	// and off under refNoSecondBest). secondSlot caches, per
	// destination, the peer slot the full decide scan would rank second
	// — exactly the route the storm's dominant update kinds (incumbent
	// withdrawal, incumbent worsening) promote, so those resolve in O(1)
	// instead of a rescan.
	// Sentinels: secondNone (known: no runner-up exists), secondInvalid
	// (unknown: a scan must rebuild it before the fast paths may trust
	// it). workSecond is the within-batch working copy, initialized from
	// secondSlot alongside workSlot on a destination's first touch.
	// Validity invariant: a non-negative entry always names a live slot
	// whose stored Adj-RIB-In route ranks exactly second in the current
	// table — every transition that cannot cheaply uphold this writes
	// secondInvalid instead. Per-run mode flags (set by reset): useSecond
	// gates this cache, blockedSkip the flush skip set, coalesce the
	// coalesced MRAI flush.
	useSecond   bool
	blockedSkip bool
	coalesce    bool
	secondSlot  []int16
	workSecond  []int16
}

// now returns the current simulated time.
func (r *router) now() des.Time { return r.eng.Now() }

// bestSlot sentinel values (real peer slots are >= 0).
const (
	bestNone int16 = -1 // no Loc-RIB entry for the destination
	bestSelf int16 = -2 // locally originated route: never displaced
)

// secondSlot sentinel values (real peer slots are >= 0).
const (
	secondNone    int16 = -1 // known: no second-ranked route exists
	secondInvalid int16 = -2 // unknown: only a full scan can rebuild it
)

// slotDenseMax bounds the topology size for which the dense slot index
// is built: the fleet-wide footprint is nodes × routers int16 entries,
// quadratic in the node count.
const slotDenseMax = 4096

// newRouter returns a router of sim that is not yet part of any network:
// rewire gives it its place in one, reset its state for a run.
func newRouter(sim *Simulator) *router {
	r := &router{
		sim: sim, eng: sim.eng, col: sim.col, rng: sim.rng, tab: &sim.tab,
		slotOf: make(map[NodeID]int),
	}
	r.proc.r = r
	r.coal.r = r
	r.adjIn = newAdjRIBIn(r.slotOf, r.tab, 0, 0)
	return r
}

// rewire makes r router id of net: its AS, its peers in node-id order
// (slot order drives tie-breaking iteration and message emission order),
// the two node-to-slot indexes, and every per-slot array at the new
// degree. A router keeps its storage from one network to the next: a
// slot's columns go to whichever peer has that slot now, and the slots
// of a larger degree seen earlier wait in the spare capacity. reset must
// follow before the router is used.
func (r *router) rewire(id NodeID, net *topology.Network) {
	r.id, r.as = id, net.ASOf(id)
	r.peers = r.peers[:0]
	for _, nb := range net.Neighbors(id) {
		r.peers = append(r.peers, Peer{Node: nb.ID, AS: net.ASOf(nb.ID), Internal: nb.Internal})
	}
	slices.SortFunc(r.peers, func(a, b Peer) int { return cmp.Compare(a.Node, b.Node) })

	nslots := len(r.peers)
	r.peerAlive = fit(r.peerAlive, nslots)
	r.nextSend = fit(r.nextSend, nslots)
	r.flushEv = fit(r.flushEv, nslots)
	r.flushAt = fit(r.flushAt, nslots)
	r.flushStamp = fit(r.flushStamp, nslots)
	r.flushTasks = fit(r.flushTasks, nslots)
	r.advertised = refit(r.advertised, nslots)
	r.pending = refit(r.pending, nslots)
	r.blocked = refit(r.blocked, nslots)
	r.adjIn.slots = refit(r.adjIn.slots, nslots)

	clear(r.slotOf)
	if n := net.NumNodes(); n <= slotDenseMax {
		r.slotDense = fit(r.slotDense, n)
		clear(r.slotDense)
	} else {
		r.slotDense = nil
	}
	for slot, peer := range r.peers {
		r.slotOf[peer.Node] = slot
		r.flushTasks[slot] = flushTask{r: r, slot: slot}
		if r.slotDense != nil {
			r.slotDense[peer.Node] = int16(slot) + 1
		}
	}
}

// reset rewinds the router to its boot state for a run with parameters p
// over ndests dense destination indices: empty RIBs, all sessions up,
// open MRAI gates, an empty inbox (reused when the queue discipline is
// unchanged), fresh policy/damping state, and zeroed load accounting.
// Every dense array is fitted to ndests and to the degree rewire left
// (see buffers.go), so repeated trials allocate almost nothing, on one
// network or on many.
func (r *router) reset(p Params, ndests int) {
	r.alive = true
	r.busy = false
	r.proc.batch = nil
	r.ndests = ndests
	r.adjIn.fit(ndests)
	r.loc.fit(ndests)
	r.originates = r.originates.fit(ndests)
	r.touched = r.touched.fit(ndests)
	r.scanNeeded = r.scanNeeded.fit(ndests)
	r.bestSlot = fit(r.bestSlot, ndests)
	fill(r.bestSlot, bestNone)
	r.workSlot = fit(r.workSlot, ndests) // filled per destination on first touch
	// flapCount backs only the Deshpande–Sikdar flap gate; every other
	// scheme leaves the array nil so the gate costs nothing per
	// destination. At multi-prefix scale an always-on int16 per dest per
	// router is half a GB of dead weight.
	if p.FlapGate > 0 {
		r.flapCount = fit(r.flapCount, ndests)
		clear(r.flapCount)
	} else {
		r.flapCount = nil
	}
	if p.PerDestinationMRAI {
		r.destGate = refit(r.destGate, len(r.peers))
	} else {
		r.destGate = nil
	}
	for slot := range r.peers {
		r.peerAlive[slot] = true
		r.nextSend[slot] = 0
		r.flushEv[slot] = nil
		r.flushAt[slot] = -1
		r.flushStamp[slot] = 0
		r.advertised[slot].fit(ndests)
		r.pending[slot] = r.pending[slot].fit(ndests)
		r.blocked[slot] = r.blocked[slot].reuse(ndests) // else re-materializes lazily
		if r.destGate != nil {
			r.destGate[slot] = fit(r.destGate[slot], ndests)
			clear(r.destGate[slot])
		}
	}
	r.coalEv = nil // the engine was reset; the event is already gone
	r.coalAt, r.coalSeq = -1, 0
	if r.inbox == nil || r.inboxQueue != p.Queue || r.inboxDiscard != p.BatchDiscardStale {
		r.inbox = newInbox(p, ndests)
	} else {
		r.inbox.Reset(ndests)
	}
	r.inboxQueue, r.inboxDiscard = p.Queue, p.BatchDiscardStale
	r.policy = p.MRAI(len(r.peers))
	if p.Damping != nil {
		r.damper = newDamper(p.Damping)
	} else {
		r.damper = nil
	}
	r.incremental = r.damper == nil && p.ref&refFullScan == 0
	r.blockedSkip = p.ref&refNoBlockedSkip == 0
	// Exact in every configuration: virtual timers carry reserved
	// engine sequence numbers, so equal-time collisions (jittered or
	// not) resolve exactly as the per-slot events would.
	r.coalesce = p.ref&refPerSlotFlush == 0
	r.useSecond = r.incremental && p.ref&refNoSecondBest == 0
	if r.useSecond {
		r.secondSlot = fit(r.secondSlot, ndests)
		fill(r.secondSlot, secondNone) // empty table: no runner-up
		r.workSecond = fit(r.workSecond, ndests)
	} else {
		// Like flapCount: per-dest int16 arrays are real memory at
		// multi-prefix scale, so the cache exists only when active.
		r.secondSlot, r.workSecond = nil, nil
	}
	r.busyAccum, r.lastSnapBusy = 0, 0
	r.busyStart, r.lastSnapTime = 0, 0
	r.msgsSinceSnap = 0
	r.destsScratch = r.destsScratch[:0]
	r.affectedScratch = r.affectedScratch[:0]
	r.changed = r.changed[:0]
}

// locEntryAt materializes the Loc-RIB entry for dest from the packed
// storage: the interned path ref plus provenance derived from bestSlot.
func (r *router) locEntryAt(dest ASN) (locEntry, bool) {
	ref, ok := r.loc.getRef(dest)
	if !ok {
		return locEntry{}, false
	}
	e := locEntry{ref: ref, from: -1}
	if bs := r.bestSlot[dest]; bs >= 0 {
		p := &r.peers[bs]
		e.from, e.fromInternal = p.Node, p.Internal
	}
	return e, true
}

// originate installs a locally originated prefix and advertises it.
func (r *router) originate(dest ASN) {
	r.originates.set(dest)
	r.loc.set(dest, emptyRef)
	r.bestSlot[dest] = bestSelf
	r.markPendingAll(dest)
	r.flushAll()
}

// procTask is the pre-allocated des.Runner for CPU-completion events.
// Each router has exactly one in-flight work unit at a time (guarded by
// r.busy), so one reusable task per router replaces a per-unit closure.
type procTask struct {
	r     *router
	batch []Update
}

// Run delivers the completed work unit to finishProcessing. Its entry is
// the path table's one safe point (see Simulator.sweep). The invariant a
// sweep needs is that no routeRef sits in a Go local across it — every
// ref must be where the root walk can rename it — and here nothing has
// read one yet, the batch included; a storm cannot grow the table
// without passing through, and a table that is not due costs two loads
// and a compare.
func (t *procTask) Run() {
	if s := t.r.sim; s.tab.n >= s.sweepAt {
		s.sweep()
	}
	batch := t.batch
	t.batch = nil
	t.r.finishProcessing(batch)
}

// flushTask is the pre-allocated des.Runner for deferred-flush events.
// Each (router, slot) has at most one armed flush event (guarded by
// r.flushEv[slot]), so one reusable task per slot replaces a per-arming
// closure.
type flushTask struct {
	r    *router
	slot int
}

// Run clears the armed-event marker and retries the flush.
func (t *flushTask) Run() {
	r := t.r
	r.flushEv[t.slot] = nil
	if bl := r.blocked[t.slot]; bl != nil {
		bl.clearAll() // the armed gate time arrived: re-examine everything
	}
	r.tryFlush(t.slot)
}

// coalTask is the pre-allocated des.Runner for the coalesced deferred
// flush: one armed event per router instead of one per (router, slot).
// Each slot's pending retry is a virtual timer carrying the exact
// (at, seq) key its per-slot event would occupy —
// the sequence number is reserved from the engine at the point the
// per-slot path would have allocated a fresh event — and the real event
// is always positioned at the minimum virtual key, firing exactly one
// slot per pop. The executed (at, seq) schedule is therefore identical
// to the per-slot baseline's by construction: same keys, same
// interleaving with every other same-time event in the queue.
type coalTask struct {
	r *router
}

// minVirtualFlush returns the slot with the earliest virtual timer key,
// or -1 when no virtual timer is pending.
func (r *router) minVirtualFlush() (slot int, at des.Time, seq uint64) {
	slot = -1
	for s, a := range r.flushAt {
		if a < 0 {
			continue
		}
		if q := r.flushStamp[s]; slot < 0 || a < at || (a == at && q < seq) {
			slot, at, seq = s, a, q
		}
	}
	return slot, at, seq
}

// Run fires the one slot whose virtual timer key the popped event
// carries, then repositions at the new minimum.
func (t *coalTask) Run() {
	r := t.r
	firedAt, firedSeq := r.coalAt, r.coalSeq
	r.coalEv = nil
	if !r.alive {
		return
	}
	slot, at, seq := r.minVirtualFlush()
	if slot < 0 {
		return // every virtual timer was cleared since arming
	}
	if at != firedAt || seq != firedSeq {
		// Stale pop: the minimum slot this event was positioned for was
		// cleared after arming (peerDown, revive). The per-slot baseline
		// pops the canceled event as the same no-op. Re-arm at the
		// surviving minimum.
		r.armCoalescedAt(at, seq)
		return
	}
	// Live pop: run exactly this slot, exactly as its flushTask would.
	r.flushAt[slot] = -1
	if bl := r.blocked[slot]; bl != nil {
		bl.clearAll() // the armed gate time arrived: re-examine everything
	}
	r.tryFlush(slot)
	// Reposition at the new minimum (tryFlush may have re-armed for its
	// own slot; another slot's virtual timer may be earlier).
	if slot, at, seq = r.minVirtualFlush(); slot >= 0 {
		r.armCoalescedAt(at, seq)
	}
}

// armCoalescedAt positions the coalesced event at virtual key (at, seq)
// unless it is already armed at that key or an earlier one. The armed
// key only ever moves earlier, and never past the engine's position:
// every virtual key is in the causal future of the arming call, and the
// armed key is a lower bound on all live virtual keys.
func (r *router) armCoalescedAt(at des.Time, seq uint64) {
	if ev := r.coalEv; ev != nil && !ev.Canceled() {
		if r.coalAt < at || (r.coalAt == at && r.coalSeq <= seq) {
			return
		}
		r.eng.Cancel(ev)
	}
	r.coalEv = r.eng.ScheduleRunnerAtSeq(at, seq, &r.coal)
	r.coalAt, r.coalSeq = at, seq
}

// peerSlot resolves a node id to its peer slot through the dense index
// when available (the per-update map lookup was ~5% of the storm
// profile), the map otherwise.
func (r *router) peerSlot(n NodeID) (int, bool) {
	if d := r.slotDense; d != nil {
		if uint(n) < uint(len(d)) {
			s := d[n]
			return int(s) - 1, s != 0
		}
		return -1, false
	}
	slot, ok := r.slotOf[n]
	return slot, ok
}

// --- receive path -----------------------------------------------------

// enqueue accepts an arriving update and starts the CPU if idle.
func (r *router) enqueue(u Update) {
	if !r.alive {
		return
	}
	r.inbox.Push(u)
	r.msgsSinceSnap++
	r.col.NoteQueueLen(r.inbox.Len())
	r.sim.emit(trace.Event{
		At: r.now(), Kind: trace.KindReceive, Node: r.id,
		Peer: int(u.From), Dest: int(u.Dest), Withdrawal: u.IsWithdrawal(),
	})
	if !r.busy {
		r.startProcessing()
	}
}

// startProcessing pops the next work unit and schedules its completion
// after the drawn processing delay (one draw per update in the unit).
// With SkipNoopUpdates, superfluous updates (no change relative to the
// Adj-RIB-In) are dropped at zero cost and the next unit is tried.
func (r *router) startProcessing() {
	for {
		batch := r.inbox.Pop()
		if len(batch) == 0 {
			return
		}
		discarded := r.inbox.TakeDiscarded()
		if r.sim.params.SkipNoopUpdates {
			kept := batch[:0]
			for _, u := range batch {
				var stored routeRef
				if slot, ok := r.peerSlot(int(u.From)); ok {
					stored = r.adjIn.getSlotRef(slot, int(u.Dest))
				}
				// No change relative to the Adj-RIB-In: a withdrawal of
				// nothing, or the stored route announced again.
				if stored == u.Ref {
					discarded++
					continue
				}
				kept = append(kept, u)
			}
			batch = kept
		}
		if discarded > 0 {
			r.col.NoteDiscarded(discarded)
		}
		if len(batch) == 0 {
			r.inbox.Recycle(batch)
			continue
		}
		var delay time.Duration
		for range batch {
			delay += r.rng.UniformDuration(r.sim.params.ProcMin, r.sim.params.ProcMax)
		}
		r.busy = true
		r.busyStart = r.now()
		r.proc.batch = batch
		r.eng.ScheduleRunnerAt(r.busyStart+delay, &r.proc)
		return
	}
}

// finishProcessing applies a processed work unit: Adj-RIB-In updates for
// every message, then one decision-process pass per touched destination
// (the batching scheme's "process all updates for a destination
// together"), then advertisement flushing. Touched destinations are
// collected in a bitset and drained in ascending order — the same sorted
// order the previous map+sort implementation produced.
func (r *router) finishProcessing(batch []Update) {
	if !r.alive {
		return
	}
	now := r.now()
	r.busyAccum += now - r.busyStart
	r.busy = false
	r.col.NoteProcessed(now, len(batch))
	r.sim.emit(trace.Event{
		At: now, Kind: trace.KindProcess, Node: r.id,
		Peer: -1, Dest: -1, Value: len(batch),
	})

	touched := r.touched
	incr := r.incremental
	for _, u := range batch {
		// Drop updates from peers that died while the message was queued.
		slot, ok := r.peerSlot(int(u.From))
		if !ok || !r.peerAlive[slot] {
			continue
		}
		dest := int(u.Dest)
		// Receiver-side loop detection.
		looped := r.tab.contains(u.Ref, r.as)
		if incr {
			// Classify the update against the working best before the
			// Adj-RIB-In mutation below overwrites the previous route.
			if !touched.has(dest) {
				r.workSlot[dest] = r.bestSlot[dest]
				if r.useSecond {
					r.workSecond[dest] = r.secondSlot[dest]
				}
			}
			r.classify(slot, u, looped)
		}
		// Flap accounting per RFC 2439: withdrawals and re-advertisements
		// of an existing route are penalized; a peer's first announcement
		// of a destination is not.
		flapped := false
		if u.IsWithdrawal() || looped {
			// A looped path is treated as an implicit withdrawal of the
			// peer's previous route.
			flapped = r.adjIn.removeSlot(slot, dest)
		} else {
			prev := r.adjIn.getSlotRef(slot, dest)
			flapped = prev != 0 && prev != u.Ref
			r.adjIn.setSlot(slot, dest, u.Ref)
		}
		if flapped && r.damper != nil {
			r.penalize(dest, int(u.From))
		}
		touched.set(dest)
	}

	changed := touched.appendIndices(r.changed[:0])
	r.changed = changed
	anyChanged := false
	for _, dest := range changed {
		touched.clear(dest)
		var routeChanged bool
		switch {
		case !incr:
			routeChanged = r.runDecision(dest)
		case r.scanNeeded.has(dest):
			r.scanNeeded.clear(dest)
			routeChanged = r.runDecision(dest)
		default:
			routeChanged = r.applyWorkingBest(dest)
		}
		if routeChanged {
			r.markPendingAll(dest)
			anyChanged = true
		}
	}
	r.inbox.Recycle(batch)
	if anyChanged {
		r.flushAll()
	}
	if !r.inbox.Empty() {
		r.startProcessing()
	}
}

// runDecision recomputes the best route for dest with the full peer-slot
// scan. It returns true when the Loc-RIB entry changed in any way that
// affects advertisements.
func (r *router) runDecision(dest ASN) bool {
	old, hadOld := r.locEntryAt(dest)
	if hadOld && old.isSelf() {
		return false // locally originated routes are never displaced
	}
	if r.useSecond {
		// One scan rebuilds both caches (decide2 ranks identically to
		// decide; useSecond implies damping is off).
		best, slot, second, ok := decide2(r.adjIn, dest, r.peers, r.peerAlive, r.sim.params.Policy, r.id)
		r.secondSlot[dest] = second
		return r.commitDecision(dest, old, hadOld, best, slot, ok)
	}
	best, slot, ok := decide(r.adjIn, dest, r.peers, r.peerAlive, r.damper, r.sim.params.Policy, r.id)
	return r.commitDecision(dest, old, hadOld, best, slot, ok)
}

// classify folds one arriving update into the batch's working-best
// bookkeeping, before the Adj-RIB-In mutation for the update is applied.
// looped is the precomputed receiver-side loop-detection verdict for the
// update's path. The per-destination batch outcomes:
//
//	(a) an update strictly better than the working best becomes the
//	    working best without a scan;
//	(b) an update to a non-best slot that does not beat the working best
//	    is a no-op for the decision process;
//	(c) only a withdrawal — or a strict worsening — of the working
//	    best's own slot forces the full decide scan (scanNeeded).
//
// The (a)/(b) split is sound because betterRoute is a strict total order
// across slots (ties break on peer AS then node ID): a replacement on a
// non-best slot that merely equals the working best still loses to it,
// and an equal-rank re-announcement on the best slot itself keeps
// winning. Only called in incremental mode, where damping is off — so
// no candidate is ever suppressed and the Loc-RIB invariant (bestSlot ==
// full-scan winner) holds between batches.
//
// With the second-best cache (useSecond), most (c) cases also resolve
// without a scan: an incumbent withdrawal promotes the cached runner-up
// (or empties the table when the runner-up is known absent), and an
// incumbent worsening compares the new route against the runner-up
// directly. The scan remains only when the runner-up is unknown
// (secondInvalid). See ARCHITECTURE.md "Storm fast lane" for the full
// classification table.
func (r *router) classify(slot int, u Update, looped bool) {
	dest := int(u.Dest)
	if r.scanNeeded.has(dest) {
		return // already falling back to the full scan for this dest
	}
	ws := r.workSlot[dest]
	if ws == bestSelf {
		return // locally originated: the decision is always a no-op
	}
	if u.IsWithdrawal() || looped {
		if ws < 0 || int(ws) != slot {
			// (b) removing a never-best route cannot change the winner —
			// but the removed route may have been the cached runner-up.
			if r.useSecond && ws >= 0 && r.workSecond[dest] == int16(slot) {
				r.workSecond[dest] = secondInvalid
			}
			return
		}
		// (c) the working best's route went away. With the second-best
		// cache the storm's dominant case resolves in O(1): the cached
		// runner-up is exactly what the full scan would now pick (or the
		// table is known to empty). The new runner-up (the old third) is
		// unknown either way.
		if r.useSecond {
			switch sec := r.workSecond[dest]; {
			case sec >= 0:
				r.workSlot[dest] = sec
				r.workSecond[dest] = secondInvalid
				return
			case sec == secondNone:
				r.workSlot[dest] = bestNone
				return
			}
		}
		r.scanNeeded.set(dest)
		return
	}
	if ws < 0 {
		r.workSlot[dest] = int16(slot) // first candidate for an empty table
		if r.useSecond {
			r.workSecond[dest] = secondNone
		}
		return
	}
	peer := r.peers[slot]
	cand := r.tab.routeVia(u.Ref, &peer)
	class := routeClass(r.sim.params.Policy, r.id, peer)
	wref := r.adjIn.getSlotRef(int(ws), dest)
	if wref == 0 {
		r.scanNeeded.set(dest) // defensive: cache out of sync, rescan
		return
	}
	if int(ws) == slot {
		// Re-announcement on the winning slot itself: same peer, so only
		// the path ranking can move. An equal-or-better replacement keeps
		// winning (and cannot reorder the routes below it); a strictly
		// worse one may let the runner-up overtake.
		prev := r.tab.routeVia(wref, &peer)
		if !betterRoute(prev, peer, class, cand, peer, class) {
			return
		}
		if r.useSecond {
			switch sec := r.workSecond[dest]; {
			case sec == secondNone:
				return // no other route: the worsened incumbent still wins
			case sec >= 0:
				if sref := r.adjIn.getSlotRef(int(sec), dest); sref != 0 {
					sp := r.peers[sec]
					sentry := r.tab.routeVia(sref, &sp)
					sclass := routeClass(r.sim.params.Policy, r.id, sp)
					if betterRoute(cand, peer, class, sentry, sp, sclass) {
						return // still ahead of the runner-up: keeps winning
					}
					// The runner-up overtakes; where the worsened incumbent
					// now ranks against the old third is unknown.
					r.workSlot[dest] = sec
					r.workSecond[dest] = secondInvalid
					return
				}
			}
		}
		r.scanNeeded.set(dest) // (c) the working best's route worsened
		return
	}
	wpeer := r.peers[ws]
	wentry := r.tab.routeVia(wref, &wpeer)
	wclass := routeClass(r.sim.params.Policy, r.id, wpeer)
	if betterRoute(cand, peer, class, wentry, wpeer, wclass) {
		// (a) strictly better: new working best. The displaced best is
		// exactly the new runner-up — even when the candidate replaced
		// the old runner-up's own route, since the displaced best
		// outranked that runner-up, which outranked everything else.
		r.workSlot[dest] = int16(slot)
		if r.useSecond {
			r.workSecond[dest] = ws
		}
		return
	}
	// (b): does not beat the working best — a decision no-op, but the
	// candidate may enter, replace, or displace the runner-up.
	if !r.useSecond {
		return
	}
	switch sec := r.workSecond[dest]; {
	case sec == secondNone:
		// Only route besides the best: the candidate is the runner-up.
		r.workSecond[dest] = int16(slot)
	case sec == int16(slot):
		// Replacement of the runner-up's own route: an equal-or-better
		// replacement stays ahead of the old third; a strictly worse one
		// may not.
		sref := r.adjIn.getSlotRef(int(sec), dest)
		if sref == 0 {
			r.workSecond[dest] = secondInvalid // defensive: cache out of sync
			return
		}
		sp := r.peers[sec]
		sentry := r.tab.routeVia(sref, &sp)
		sclass := routeClass(r.sim.params.Policy, r.id, sp)
		if betterRoute(sentry, sp, sclass, cand, peer, class) {
			r.workSecond[dest] = secondInvalid
		}
	case sec >= 0:
		sref := r.adjIn.getSlotRef(int(sec), dest)
		if sref == 0 {
			r.workSecond[dest] = secondInvalid // defensive: cache out of sync
			return
		}
		sp := r.peers[sec]
		sentry := r.tab.routeVia(sref, &sp)
		sclass := routeClass(r.sim.params.Policy, r.id, sp)
		if betterRoute(cand, peer, class, sentry, sp, sclass) {
			r.workSecond[dest] = int16(slot) // overtakes the runner-up
		}
	}
	// Remaining case (sec == secondInvalid): stays unknown.
}

// applyWorkingBest resolves a touched destination's decision without
// scanning the peer slots: when no scan was flagged, classify has
// maintained workSlot as exactly the slot a full decide scan over the
// final Adj-RIB-In would pick, so the winner is read back directly. The
// Loc-RIB commit (and all its observable side effects) is shared with
// runDecision, so the two paths cannot drift.
func (r *router) applyWorkingBest(dest ASN) bool {
	old, hadOld := r.locEntryAt(dest)
	if hadOld && old.isSelf() {
		return false // locally originated routes are never displaced
	}
	ws := r.workSlot[dest]
	if ws < 0 {
		if hadOld && r.useSecond {
			// classify concluded the table emptied (incumbent withdrawn,
			// runner-up known absent): commit the removal scan-free.
			r.secondSlot[dest] = secondNone
			return r.commitDecision(dest, old, hadOld, locEntry{}, -1, false)
		}
		// Only removals of never-best routes touched dest: the table had
		// no winner before and has none now (a Loc-RIB entry would have
		// initialized ws to its slot).
		return false
	}
	ref := r.adjIn.getSlotRef(int(ws), dest)
	if ref == 0 {
		return r.runDecision(dest) // defensive: cache out of sync, rescan
	}
	if r.useSecond {
		// Committed even when the winner is unchanged: the batch may have
		// moved only the runner-up.
		r.secondSlot[dest] = r.workSecond[dest]
	}
	peer := &r.peers[ws]
	best := locEntry{ref: ref, from: peer.Node, fromInternal: peer.Internal}
	return r.commitDecision(dest, old, hadOld, best, int(ws), true)
}

// commitDecision installs a decision-process outcome (winner best from
// slot, or no route when !ok) against the previous Loc-RIB entry and
// performs the observable bookkeeping: flap counting, the collector's
// route-change note, and the trace event. Both the full-scan and the
// incremental paths terminate here, which is what keeps their side
// effects provably identical.
func (r *router) commitDecision(dest ASN, old locEntry, hadOld bool, best locEntry, slot int, ok bool) bool {
	switch {
	case !ok && !hadOld:
		return false
	case !ok:
		r.loc.del(dest)
		r.bestSlot[dest] = bestNone
	case hadOld && best.sameAs(old):
		return false // bestSlot already points at slot (same winner)
	default:
		r.loc.set(dest, best.ref)
		r.bestSlot[dest] = int16(slot)
	}
	pathChanged := !hadOld || !ok || old.ref != best.ref
	if pathChanged {
		if r.flapCount != nil && r.flapCount[dest] != math.MaxInt16 {
			r.flapCount[dest]++
		}
		r.col.NoteRouteChange(r.now())
		pathLen := -1
		if ok {
			pathLen = r.tab.len(best.ref)
		}
		r.sim.emit(trace.Event{
			At: r.now(), Kind: trace.KindRouteChange, Node: r.id,
			Peer: -1, Dest: dest, Value: pathLen,
		})
	}
	return true
}

// --- send path --------------------------------------------------------

// markPendingAll queues dest for re-advertisement to every live peer and
// applies the Deshpande–Sikdar timer cancellation when configured.
func (r *router) markPendingAll(dest ASN) {
	now := r.now()
	valid := r.loc.has.has(dest)
	for slot := range r.peers {
		if !r.peerAlive[slot] {
			continue
		}
		r.pending[slot].set(dest)
		if r.blockedSkip {
			// The desired advertisement may have changed — possibly into
			// a withdrawal, which bypasses the announcement gate — so the
			// destination must be re-examined even while its gate runs.
			if bl := r.blocked[slot]; bl != nil {
				bl.clear(dest)
			}
		}
		if r.sim.params.CancelOnChange && valid && r.nextSend[slot] > now {
			r.nextSend[slot] = now
		}
	}
}

// flushAll attempts an advertisement flush on every live slot.
func (r *router) flushAll() {
	for slot := range r.peers {
		r.tryFlush(slot)
	}
}

// tryFlush sends what the slot's timers currently allow: withdrawals
// immediately (unless RateLimitWithdrawals), announcements when the
// per-peer (or per-destination) MRAI gate is open. When announcements are
// sent the gate rearms with the policy's current MRAI, jittered per
// RFC 1771. Blocked announcements get a deferred flush event. The
// pending bitset is drained in ascending destination order — identical
// to the sorted snapshot the map-based implementation flushed.
func (r *router) tryFlush(slot int) {
	if !r.alive || !r.peerAlive[slot] {
		return
	}
	pend := r.pending[slot]
	if !pend.any() {
		return
	}
	now := r.now()
	peerAllowed := now >= r.nextSend[slot]

	// Storm blocked-skip: pending destinations already examined and found
	// gate-blocked are skipped until a gate can have opened. With the
	// per-peer gate (destGate == nil) the opening is detectable right
	// here (peerAllowed), so the skip set is cleared and the full pending
	// list re-examined; with per-destination gates the deferred-flush
	// fire clears it — the armed retry time is the minimum of the noted
	// gate times, so no skipped gate opens before the event. A changed
	// route clears its destination's bit via markPendingAll.
	var bl bitset
	if r.blockedSkip {
		bl = r.blocked[slot]
	}
	var dests []ASN
	if bl != nil && bl.any() {
		if r.destGate == nil && peerAllowed {
			bl.clearAll()
			dests = pend.appendIndices(r.destsScratch[:0])
		} else {
			dests = pend.appendIndicesAndNot(bl, r.destsScratch[:0])
			if len(dests) == 0 {
				// Everything pending is known blocked: the deferred flush
				// armed when the bits were set covers the retry.
				r.destsScratch = dests
				return
			}
		}
	} else {
		dests = pend.appendIndices(r.destsScratch[:0])
	}
	r.destsScratch = dests

	sentGated := false // a gated announcement went out -> rearm timer
	sentAny := false
	var minBlocked des.Time = -1
	noteBlocked := func(dest ASN, at des.Time) {
		if minBlocked < 0 || at < minBlocked {
			minBlocked = at
		}
		if r.blockedSkip {
			if bl == nil {
				bl = newBitset(r.ndests)
				r.blocked[slot] = bl
			}
			bl.set(dest)
		}
	}

	adv := &r.advertised[slot]
	for _, dest := range dests {
		desired := r.desiredAdvert(dest, slot)
		// The advertised table only ever records nonzero announcement
		// refs (withdrawals delete the entry), so "nothing to send" —
		// the same path again, or still nothing — is one compare on this
		// very hot load.
		if desired == adv.get(dest) {
			pend.clear(dest)
			continue
		}
		if desired == 0 {
			// Withdrawal.
			if r.sim.params.RateLimitWithdrawals && !r.destAllowed(slot, dest, peerAllowed) {
				noteBlocked(dest, r.gateTime(slot, dest))
				continue
			}
			r.send(slot, Update{From: int32(r.id), Dest: int32(dest)})
			adv.del(dest)
			pend.clear(dest)
			sentAny = true
			if r.sim.params.RateLimitWithdrawals {
				sentGated = true
				if r.destGate != nil {
					r.destGate[slot][dest] = now + r.nextMRAI(now)
				}
			}
			continue
		}
		// Announcement.
		bypass := r.sim.params.FlapGate > 0 && int(r.flapCount[dest]) < r.sim.params.FlapGate
		if !bypass && !r.destAllowed(slot, dest, peerAllowed) {
			noteBlocked(dest, r.gateTime(slot, dest))
			continue
		}
		r.send(slot, Update{From: int32(r.id), Dest: int32(dest), Ref: desired})
		adv.set(dest, desired, r.ndests)
		pend.clear(dest)
		sentAny = true
		if !bypass {
			sentGated = true
			if r.destGate != nil {
				r.destGate[slot][dest] = now + r.nextMRAI(now)
			}
		}
	}

	if sentGated && r.destGate == nil {
		r.nextSend[slot] = now + r.nextMRAI(now)
	}
	if sentAny {
		r.col.NotePacket(now)
	}
	if pend.any() {
		if r.destGate == nil {
			minBlocked = r.nextSend[slot]
		}
		r.scheduleFlush(slot, minBlocked)
	}
}

// destAllowed reports whether the announcement gate for (slot, dest) is
// open. peerAllowed is the precomputed per-peer answer.
func (r *router) destAllowed(slot int, dest ASN, peerAllowed bool) bool {
	if r.destGate == nil {
		return peerAllowed
	}
	return r.now() >= r.destGate[slot][dest]
}

// gateTime returns when the announcement gate for (slot, dest) opens.
func (r *router) gateTime(slot int, dest ASN) des.Time {
	if r.destGate == nil {
		return r.nextSend[slot]
	}
	return r.destGate[slot][dest]
}

// nextMRAI consults the policy with a fresh load snapshot and applies
// RFC 1771 jitter. Per the paper, the policy (and any dynamic level
// change) takes effect only here, at timer restart.
func (r *router) nextMRAI(now des.Time) time.Duration {
	m := r.policy.MRAI(r.snapshot(now))
	r.sim.emit(trace.Event{
		At: now, Kind: trace.KindTimerRestart, Node: r.id,
		Peer: -1, Dest: -1, Value: int(m),
	})
	if r.sim.params.JitterTimers {
		return r.rng.Jitter(m)
	}
	return m
}

// scheduleFlush arms (or re-arms earlier) the deferred flush for slot.
// In coalesced mode (all but refPerSlotFlush) the slot's retry time is
// recorded in flushAt and the single per-router event is armed at the
// earliest retry over all slots; otherwise a per-slot event is armed.
func (r *router) scheduleFlush(slot int, at des.Time) {
	if at < 0 {
		return
	}
	now := r.now()
	if at < now {
		at = now
	}
	if r.coalesce {
		if cur := r.flushAt[slot]; cur < 0 || at < cur {
			// Mirror the per-slot re-arm rule below: the recorded retry
			// only ever moves earlier, and each move reserves the exact
			// sequence number the per-slot path's fresh event would have
			// drawn — the virtual timer key (at, seq) is byte-for-byte
			// the queue key that event would occupy.
			r.flushAt[slot] = at
			r.flushStamp[slot] = r.eng.ReserveSeq()
		}
		r.armCoalescedAt(r.flushAt[slot], r.flushStamp[slot])
		return
	}
	if ev := r.flushEv[slot]; ev != nil && !ev.Canceled() {
		if ev.At() <= at {
			return
		}
		r.eng.Cancel(ev)
	}
	r.flushEv[slot] = r.eng.ScheduleRunnerAt(at, &r.flushTasks[slot])
}

// send transmits one route-level update to the slot's peer.
func (r *router) send(slot int, u Update) {
	peer := r.peers[slot]
	now := r.now()
	r.col.NoteSend(now, r.id, u.IsWithdrawal())
	r.sim.emit(trace.Event{
		At: now, Kind: trace.KindSend, Node: r.id,
		Peer: peer.Node, Dest: int(u.Dest), Withdrawal: u.IsWithdrawal(),
	})
	r.sim.deliver(r, r.sim.routers[peer.Node], peer.Delay, u)
}

// desiredAdvert computes what the router should currently advertise to
// the slot's peer for dest: the announcement path's ref, or 0 meaning
// "nothing" (which materializes as a withdrawal if something was
// previously advertised). The rules:
//
//   - no valid route -> nothing;
//   - never back to the peer the best route came from (split horizon /
//     sender-side loop detection);
//   - IBGP-learned routes are not relayed to IBGP peers;
//   - to an internal peer the path is passed unchanged;
//   - to an external peer the local AS is prepended, and the route is
//     suppressed if the peer's AS already appears on the path.
//
// The prepended export is derived through the path table's memoized
// prepend — every peer, every flush retry, and every prefix of an origin
// shares the same interned path — and its ref is cached per destination
// in the Loc-RIB so the steady-state flush pays one array load.
func (r *router) desiredAdvert(dest ASN, slot int) routeRef {
	ref, ok := r.loc.getRef(dest)
	if !ok {
		return 0
	}
	peer := r.peers[slot]
	if bs := r.bestSlot[dest]; bs >= 0 {
		fp := &r.peers[bs]
		if fp.Node == peer.Node {
			return 0
		}
		if fp.Internal && peer.Internal {
			return 0
		}
		if rel := r.sim.params.Policy; rel != nil && !peer.Internal {
			// Gao–Rexford export rule: self-originated and customer-learned
			// routes are exported to everyone; peer- and provider-learned
			// routes only to customers.
			fromCustomer := routeClass(rel, r.id, *fp) == 0
			toCustomer := rel.Of(r.id, peer.Node) == topology.RelCustomer || rel.Of(r.id, peer.Node) == topology.RelNone
			if !fromCustomer && !toCustomer {
				return 0
			}
		}
	}
	if peer.Internal {
		return ref
	}
	if peer.AS == r.as {
		// Defensive: external peers always have a different AS.
		return 0
	}
	if r.tab.contains(ref, peer.AS) {
		return 0
	}
	exp := r.loc.exports[dest]
	if exp == 0 {
		exp = r.tab.prepend(r.as, ref)
		r.loc.exports[dest] = exp
	}
	return exp
}

// --- failure handling ---------------------------------------------------

// kill removes the router from the simulation: it stops processing,
// sending, and receiving. Pending events guard on alive. What it had
// queued is lost with it (enqueue refuses a dead router and revive starts
// from a fresh queue and an idle CPU), so a dead router holds no update
// and is not busy. The completion of a unit it was working on still
// fires, finds it dead and drops the unit.
func (r *router) kill() {
	r.alive = false
	r.busy = false
	r.inbox.Reset(r.ndests)
	for slot, ev := range r.flushEv {
		r.eng.Cancel(ev)
		r.flushEv[slot] = nil
		r.flushAt[slot] = -1
	}
	r.eng.Cancel(r.coalEv)
	r.coalEv = nil
}

// revive restores a killed router to its boot state: empty RIBs, fresh
// queue and timers, all sessions down until peerUp re-establishes them.
func (r *router) revive() {
	r.alive = true
	r.busy = false
	r.adjIn.reset()
	r.loc.reset()
	r.originates.clearAll()
	r.inbox = newInbox(r.sim.params, r.ndests)
	r.inboxQueue, r.inboxDiscard = r.sim.params.Queue, r.sim.params.BatchDiscardStale
	r.policy.Rewind()
	for i := range r.flapCount {
		r.flapCount[i] = 0
	}
	for i := range r.bestSlot {
		r.bestSlot[i] = bestNone
	}
	for i := range r.secondSlot {
		r.secondSlot[i] = secondNone // table emptied: no runner-up
	}
	if r.sim.params.Damping != nil {
		r.damper = newDamper(r.sim.params.Damping)
	}
	r.busyAccum, r.lastSnapBusy = 0, 0
	r.busyStart, r.lastSnapTime = r.now(), r.now()
	r.msgsSinceSnap = 0
	r.eng.Cancel(r.coalEv)
	r.coalEv = nil
	for slot := range r.peers {
		r.peerAlive[slot] = false
		r.advertised[slot].reset()
		r.pending[slot].clearAll()
		r.nextSend[slot] = 0
		r.eng.Cancel(r.flushEv[slot])
		r.flushEv[slot] = nil
		r.flushAt[slot] = -1
		if bl := r.blocked[slot]; bl != nil {
			bl.clearAll()
		}
		if r.destGate != nil {
			gates := r.destGate[slot]
			for i := range gates {
				gates[i] = 0
			}
		}
	}
}

// peerUp (re-)establishes the session on slot and queues the full table
// for advertisement to the peer — BGP's initial route exchange.
func (r *router) peerUp(slot int) {
	if !r.alive || r.peerAlive[slot] {
		return
	}
	r.peerAlive[slot] = true
	r.advertised[slot].reset()
	r.nextSend[slot] = 0
	pend := r.pending[slot]
	for wi := range pend {
		pend[wi] |= r.loc.has[wi]
	}
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
	r.pending[slot].clearAll()
	r.advertised[slot].reset()
	r.eng.Cancel(r.flushEv[slot])
	r.flushEv[slot] = nil
	r.flushAt[slot] = -1
	if bl := r.blocked[slot]; bl != nil {
		bl.clearAll()
	}

	affected := r.adjIn.destsViaSlot(slot, r.affectedScratch[:0])
	r.affectedScratch = affected
	anyChanged := false
	for _, dest := range affected {
		r.adjIn.removeSlot(slot, dest)
		if r.incremental {
			if r.useSecond && r.secondSlot[dest] == int16(slot) {
				r.secondSlot[dest] = secondInvalid
			}
			if r.bestSlot[dest] != int16(slot) {
				// Losing a route that was not the winner cannot change the
				// decision: the full scan would re-pick the cached winner
				// and return unchanged (the dead slot is already skipped
				// via peerAlive). Skipping it here is what makes session
				// loss O(routes via the dead peer that were actually best)
				// instead of O(affected destinations × degree).
				continue
			}
			if r.useSecond {
				// Incumbent lost with a usable runner-up cache: commit the
				// promotion (or the known-empty outcome) without a scan.
				// The affected list covers every destination routed via
				// this slot, so a cached runner-up on a *different* slot
				// is still alive and stored.
				if sec := r.secondSlot[dest]; sec >= 0 {
					if ref := r.adjIn.getSlotRef(int(sec), dest); ref != 0 && r.peerAlive[sec] {
						old, hadOld := r.locEntryAt(dest)
						p := &r.peers[sec]
						best := locEntry{ref: ref, from: p.Node, fromInternal: p.Internal}
						r.secondSlot[dest] = secondInvalid // old third unknown
						if r.commitDecision(dest, old, hadOld, best, int(sec), true) {
							r.markPendingAll(dest)
							anyChanged = true
						}
						continue
					}
				} else if sec == secondNone {
					old, hadOld := r.locEntryAt(dest)
					if r.commitDecision(dest, old, hadOld, locEntry{}, -1, false) {
						r.markPendingAll(dest)
						anyChanged = true
					}
					continue
				}
			}
		}
		if r.runDecision(dest) {
			r.markPendingAll(dest)
			anyChanged = true
		}
	}
	if anyChanged {
		r.flushAll()
	}
}

// normalizeWindow canonicalizes the router's residual phase-1 transients
// at the moment the measurement window opens (see
// Simulator.normalizeWindow): MRAI gates expire, the flap-gate counters
// restart (their documented "since the window opened" semantics), the
// MRAI policy and damper return to their boot state, and the load
// accounting re-anchors at the window time. The RIBs, advertisement
// bookkeeping, and sessions are untouched — those carry the converged
// routing state the post-failure dynamics run from.
func (r *router) normalizeWindow(at des.Time) {
	if !r.alive {
		return
	}
	for slot := range r.peers {
		r.nextSend[slot] = 0
		// All gates just opened: everything skipped as blocked is
		// sendable at the very next flush pass, exactly as the baseline
		// path would re-examine it.
		if bl := r.blocked[slot]; bl != nil {
			bl.clearAll()
		}
	}
	if r.destGate != nil {
		for slot := range r.destGate {
			gates := r.destGate[slot]
			for i := range gates {
				gates[i] = 0
			}
		}
	}
	for i := range r.flapCount {
		r.flapCount[i] = 0
	}
	r.policy.Rewind()
	if r.sim.params.Damping != nil {
		r.damper = newDamper(r.sim.params.Damping)
	}
	r.busyAccum, r.lastSnapBusy = 0, 0
	r.busyStart, r.lastSnapTime = at, at
	r.msgsSinceSnap = 0
}

// snapshot builds the mrai.Snapshot for a timer restart and rolls the
// per-window accounting forward.
func (r *router) snapshot(now des.Time) mrai.Snapshot {
	busy := r.busyAccum
	if r.busy {
		busy += now - r.busyStart
	}
	elapsed := now - r.lastSnapTime
	var util, rate float64
	if elapsed > 0 {
		util = float64(busy-r.lastSnapBusy) / float64(elapsed)
		rate = float64(r.msgsSinceSnap) / elapsed.Seconds()
	}
	r.lastSnapTime = now
	r.lastSnapBusy = busy
	r.msgsSinceSnap = 0
	qlen := r.inbox.Len()
	return mrai.Snapshot{
		Now:            now,
		Degree:         len(r.peers),
		QueueLen:       qlen,
		UnfinishedWork: time.Duration(qlen) * r.sim.params.MeanProc(),
		Utilization:    util,
		MsgRate:        rate,
	}
}

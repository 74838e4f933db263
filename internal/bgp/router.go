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

	peers     []Peer // sorted by node id; an index is a slot
	peerAlive []bool

	ndests     int // dest-index capacity all dense arrays are sized for
	adjIn      *adjRIBIn
	loc        locRIB
	originates bitset

	// Per-slot advertisement state.
	advertised []refSlot    // last announced ref per destination (0 = withdrawn/never)
	pending    []bitset     // destinations needing re-advertisement (drained in ascending order)
	nextSend   []des.Time   // per-peer MRAI gate: announcements allowed at/after this time
	destGate   [][]des.Time // per-destination gates (PerDestinationMRAI ablation); zero = open
	flushEv    []*des.Event // armed deferred flush per slot; nil = none

	// Storm fast-lane send-path state (see ARCHITECTURE.md "Storm fast
	// lane"). blocked marks, per slot, pending destinations that tryFlush
	// examined and found MRAI-gate-blocked; they are skipped on later
	// passes until a gate can have opened (per-peer gate reached, or the
	// deferred flush fires) or the destination's desired advertisement
	// may have changed (markPendingAll clears the bit). Columns are
	// allocated lazily on a slot's first blocked destination. blockedSkip
	// is false under the refNoBlockedSkip reference path.
	blocked     []bitset
	blockedSkip bool

	inbox        Inbox
	inboxQueue   QueueDiscipline // discipline inbox was built for (reset reuses on match)
	inboxDiscard bool            // BatchDiscardStale inbox was built for

	policy mrai.Policy

	// Reusable scratch and pre-allocated event tasks. The simulation hot
	// loop (enqueue -> process -> decide -> flush) runs millions of times
	// per experiment; everything here exists so that steady-state
	// iterations allocate nothing.
	proc       procTask    // the single in-flight CPU-completion task
	procEv     *des.Event  // proc's armed completion event; nil = CPU idle (see busy)
	flushTasks []flushTask // per-slot deferred-flush tasks
	touched    bitset

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
}

// now returns the current simulated time.
func (r *router) now() des.Time { return r.eng.Now() }

// busy reports whether the CPU is working on a unit: its completion is
// armed.
func (r *router) busy() bool { return r.procEv != nil }

// bestSlot sentinel values (real peer slots are >= 0).
const (
	bestNone int16 = -1 // no Loc-RIB entry for the destination
	bestSelf int16 = -2 // locally originated route: never displaced
)

// newRouter returns a router of sim that is not yet part of any network:
// rewire gives it its place in one, reset its state for a run.
func newRouter(sim *Simulator) *router {
	r := &router{
		sim: sim, eng: sim.eng, col: sim.col, rng: sim.rng, tab: &sim.tab,
	}
	r.proc.r = r
	r.adjIn = &adjRIBIn{tab: r.tab}
	return r
}

// rewire makes r router id of net: its AS, its peers in node-id order
// (slot order drives tie-breaking iteration and message emission order)
// and every per-slot array at the new degree; Simulator.rewire fills in
// each peer's Back once every router is wired. A router keeps its
// storage from one network to the next: a slot's columns go to whichever
// peer has that slot now, and the slots of a larger degree seen earlier
// wait in the spare capacity. reset must follow before the router is
// used.
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
	r.flushTasks = fit(r.flushTasks, nslots)
	r.advertised = refit(r.advertised, nslots)
	r.pending = refit(r.pending, nslots)
	r.blocked = refit(r.blocked, nslots)
	r.adjIn.slots = refit(r.adjIn.slots, nslots)
	for slot := range r.peers {
		r.flushTasks[slot] = flushTask{r: r, slot: slot}
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
	r.proc.batch = nil
	r.procEv = nil
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
		r.advertised[slot].fit(ndests)
		r.pending[slot] = r.pending[slot].fit(ndests)
		r.blocked[slot] = r.blocked[slot].reuse(ndests) // else re-materializes lazily
		if r.destGate != nil {
			r.destGate[slot] = fit(r.destGate[slot], ndests)
			clear(r.destGate[slot])
		}
	}
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
	r.busyAccum, r.lastSnapBusy = 0, 0
	r.busyStart, r.lastSnapTime = 0, 0
	r.msgsSinceSnap = 0
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
// busy), so one reusable task per router replaces a per-unit closure.
type procTask struct {
	r     *router
	batch []Update
}

// Run clears the armed-event marker and delivers the completed work unit
// to finishProcessing. Its entry is the path table's one safe point (see
// Simulator.sweep). The invariant a sweep needs is that no routeRef sits
// in a Go local across it — every ref must be where the root walk can
// rename it — and here nothing has read one yet, the batch included; a
// storm cannot grow the table without passing through, and a table that
// is not due costs two loads and a compare.
func (t *procTask) Run() {
	if s := t.r.sim; s.tab.n >= s.sweepAt {
		s.sweep()
	}
	batch := t.batch
	t.batch = nil
	t.r.procEv = nil
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
		Peer: r.peers[u.Slot].Node, Dest: int(u.Dest), Withdrawal: u.IsWithdrawal(),
	})
	if !r.busy() {
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
				// No change relative to the Adj-RIB-In: a withdrawal of
				// nothing, or the stored route announced again.
				if r.adjIn.getSlotRef(int(u.Slot), int(u.Dest)) == u.Ref {
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
		r.busyStart = r.now()
		r.proc.batch = batch
		r.procEv = r.eng.ScheduleRunnerAt(r.busyStart+delay, &r.proc)
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
	now := r.now()
	r.busyAccum += now - r.busyStart
	r.col.NoteProcessed(now, len(batch))
	r.sim.emit(trace.Event{
		At: now, Kind: trace.KindProcess, Node: r.id,
		Peer: -1, Dest: -1, Value: len(batch),
	})

	touched := r.touched
	incr := r.incremental
	for _, u := range batch {
		// Drop updates from peers that died while the message was queued.
		slot := int(u.Slot)
		if !r.peerAlive[slot] {
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
			r.penalize(dest, r.peers[slot].Node)
		}
		touched.set(dest)
	}

	changed := touched.appendIndices(r.sim.changedScratch[:0])
	r.sim.changedScratch = changed
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
		if ws >= 0 && int(ws) == slot {
			r.scanNeeded.set(dest) // (c) the working best's route went away
		}
		return // (b) removing a never-best route cannot change the winner
	}
	if ws < 0 {
		r.workSlot[dest] = int16(slot) // first candidate for an empty table
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
		// winning; a strictly worse one may let another route overtake.
		prev := r.tab.routeVia(wref, &peer)
		if betterRoute(prev, peer, class, cand, peer, class) {
			r.scanNeeded.set(dest) // (c) the working best's route worsened
		}
		return
	}
	wpeer := r.peers[ws]
	wentry := r.tab.routeVia(wref, &wpeer)
	wclass := routeClass(r.sim.params.Policy, r.id, wpeer)
	if betterRoute(cand, peer, class, wentry, wpeer, wclass) {
		r.workSlot[dest] = int16(slot) // (a) strictly better: new working best
	}
	// Otherwise (b): does not beat the working best, a decision no-op.
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
		// Only removals of never-best routes touched dest: the table had
		// no winner before and has none now (a Loc-RIB entry would have
		// initialized ws to its slot).
		return false
	}
	ref := r.adjIn.getSlotRef(int(ws), dest)
	if ref == 0 {
		return r.runDecision(dest) // defensive: cache out of sync, rescan
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
			dests = pend.appendIndices(r.sim.destsScratch[:0])
		} else {
			dests = pend.appendIndicesAndNot(bl, r.sim.destsScratch[:0])
			if len(dests) == 0 {
				// Everything pending is known blocked: the deferred flush
				// armed when the bits were set covers the retry.
				r.sim.destsScratch = dests
				return
			}
		}
	} else {
		dests = pend.appendIndices(r.sim.destsScratch[:0])
	}
	r.sim.destsScratch = dests

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
			r.send(slot, Update{Dest: int32(dest)})
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
		r.send(slot, Update{Dest: int32(dest), Ref: desired})
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

// scheduleFlush arms the deferred flush for slot at time at, or re-arms
// it earlier; an armed flush already due no later is kept.
func (r *router) scheduleFlush(slot int, at des.Time) {
	if at < 0 {
		return
	}
	now := r.now()
	if at < now {
		at = now
	}
	if ev := r.flushEv[slot]; ev != nil && !ev.Canceled() {
		if ev.At() <= at {
			return
		}
		r.eng.Cancel(ev)
	}
	r.flushEv[slot] = r.eng.ScheduleRunnerAt(at, &r.flushTasks[slot])
}

// send transmits one route-level update to the slot's peer, stamped with
// the slot the peer knows this router by.
func (r *router) send(slot int, u Update) {
	peer := r.peers[slot]
	u.Slot = peer.Back
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
// queued is lost with it, the unit on its CPU included: the completion
// event is canceled, so a router revived before that unit was due does
// not finish it. A dead router holds no update and is not busy, and
// revive starts from the empty queue and idle CPU kill leaves.
func (r *router) kill() {
	r.alive = false
	r.eng.Cancel(r.procEv)
	r.procEv = nil
	r.proc.batch = nil
	r.inbox.Reset(r.ndests)
	for slot, ev := range r.flushEv {
		r.eng.Cancel(ev)
		r.flushEv[slot] = nil
	}
}

// revive restores a killed router to its boot state: empty RIBs, the
// queue kill emptied, fresh timers, all sessions down until peerUp
// re-establishes them.
func (r *router) revive() {
	r.alive = true
	r.adjIn.reset()
	r.loc.reset()
	r.originates.clearAll()
	r.policy.Rewind()
	for i := range r.flapCount {
		r.flapCount[i] = 0
	}
	for i := range r.bestSlot {
		r.bestSlot[i] = bestNone
	}
	if r.sim.params.Damping != nil {
		r.damper = newDamper(r.sim.params.Damping)
	}
	r.busyAccum, r.lastSnapBusy = 0, 0
	r.busyStart, r.lastSnapTime = r.now(), r.now()
	r.msgsSinceSnap = 0
	for slot := range r.peers {
		r.peerAlive[slot] = false
		r.advertised[slot].reset()
		r.pending[slot].clearAll()
		r.nextSend[slot] = 0
		r.eng.Cancel(r.flushEv[slot])
		r.flushEv[slot] = nil
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
	if bl := r.blocked[slot]; bl != nil {
		bl.clearAll()
	}

	affected := r.adjIn.destsViaSlot(slot, r.sim.affectedScratch[:0])
	r.sim.affectedScratch = affected
	anyChanged := false
	for _, dest := range affected {
		r.adjIn.removeSlot(slot, dest)
		if r.incremental && r.bestSlot[dest] != int16(slot) {
			// Losing a route that was not the winner cannot change the
			// decision: the full scan would re-pick the cached winner and
			// return unchanged (the dead slot is already skipped via
			// peerAlive). Skipping it here is what makes session loss
			// O(routes via the dead peer that were actually best) instead
			// of O(affected destinations × degree).
			continue
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
	if r.busy() {
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

package bgp

import (
	"fmt"
	"time"

	"bgpsim/internal/des"
	"bgpsim/internal/mrai"
	"bgpsim/internal/trace"
)

// flushStation is a router's third station: the MRAI gates, the pending
// sets and the advertisement bookkeeping that decide when the Loc-RIB's
// changes go out. blocked is the storm fast lane (ARCHITECTURE.md "Storm
// fast lane"): per slot, the pending destinations tryFlush found
// gate-blocked, skipped until a gate can have opened or markPendingAll
// clears the bit; a slot's column is allocated on first use. blockedSkip
// is false under the refNoBlockedSkip reference path.
type flushStation struct {
	advertised []refSlot    // last announced ref per destination (0 = withdrawn/never)
	pending    []bitset     // destinations needing re-advertisement (drained in ascending order)
	timers     []slotTimer  // per-slot MRAI gate and deferred flush
	destGate   [][]des.Time // per-destination gates (PerDestinationMRAI ablation); zero = open

	blocked     []bitset
	blockedSkip bool

	policy mrai.Policy
}

// slotTimer is one slot's MRAI timer: the per-peer gate and the deferred
// flush armed against it.
type slotTimer struct {
	nextSend des.Time   // announcements allowed at/after this time
	ev       *des.Event // armed deferred flush; nil = none
	task     flushTask  // what ev runs, so arming allocates nothing
}

// rewire fits the per-slot columns to nslots peers of r.
func (f *flushStation) rewire(r *router, nslots int) {
	f.timers = fit(f.timers, nslots)
	f.advertised = r.sim.spare.refit(f.advertised, nslots)
	f.pending = refit(f.pending, nslots)
	f.blocked = refit(f.blocked, nslots)
	for slot := range f.timers {
		f.timers[slot].task = flushTask{r: r, slot: slot}
	}
}

// reset fits the station to nslots peers and ndests destinations for a
// run with parameters p: nothing advertised or pending, every gate open,
// no flush armed and a fresh policy.
func (f *flushStation) reset(p Params, nslots, ndests int) {
	if p.PerDestinationMRAI {
		f.destGate = refit(f.destGate, nslots)
	} else {
		f.destGate = nil
	}
	for slot := range nslots {
		f.timers[slot].nextSend, f.timers[slot].ev = 0, nil
		f.advertised[slot].fit(ndests)
		f.pending[slot] = f.pending[slot].fit(ndests)
		f.blocked[slot] = f.blocked[slot].reuse(ndests) // else re-materializes lazily
		if f.destGate != nil {
			f.destGate[slot] = fit(f.destGate[slot], ndests)
			clear(f.destGate[slot])
		}
	}
	f.policy = p.MRAI(nslots)
	f.blockedSkip = p.ref&refNoBlockedSkip == 0
}

// stop cancels every armed flush when the router dies.
func (f *flushStation) stop(eng *des.Engine) {
	for slot := range f.timers {
		eng.Cancel(f.timers[slot].ev)
		f.timers[slot].ev = nil
	}
}

// closeSlot forgets the session on slot: nothing advertised or pending
// to the peer, no flush armed, nothing known blocked.
func (f *flushStation) closeSlot(eng *des.Engine, slot int) {
	f.pending[slot].clearAll()
	f.advertised[slot].reset()
	eng.Cancel(f.timers[slot].ev)
	f.timers[slot].ev = nil
	if bl := f.blocked[slot]; bl != nil {
		bl.clearAll()
	}
}

// openSlot starts the session on slot: its per-peer gate open, nothing
// advertised yet, and every destination in table pending.
func (f *flushStation) openSlot(slot int, table bitset) {
	f.advertised[slot].reset()
	f.timers[slot].nextSend = 0
	pend := f.pending[slot]
	for wi := range pend {
		pend[wi] |= table[wi]
	}
}

// rewindGates opens every MRAI gate and returns the policy to its boot
// state. Everything skipped as blocked is then sendable at the very next
// flush pass, exactly as the reference path would re-examine it.
func (f *flushStation) rewindGates() {
	for slot := range f.timers {
		f.timers[slot].nextSend = 0
	}
	for _, bl := range f.blocked {
		if bl != nil {
			bl.clearAll()
		}
	}
	for _, gates := range f.destGate {
		clear(gates)
	}
	f.policy.Rewind()
}

// destAllowed reports whether the announcement gate for (slot, dest) is
// open at now. peerAllowed is the precomputed per-peer answer.
func (f *flushStation) destAllowed(slot int, dest ASN, now des.Time, peerAllowed bool) bool {
	if f.destGate == nil {
		return peerAllowed
	}
	return now >= f.destGate[slot][dest]
}

// gateTime returns when the announcement gate for (slot, dest) opens.
func (f *flushStation) gateTime(slot int, dest ASN) des.Time {
	if f.destGate == nil {
		return f.timers[slot].nextSend
	}
	return f.destGate[slot][dest]
}

// noteBlocked marks dest blocked on slot until its gate opens at at, and
// returns the pass's earliest gate time so far: at or minBlocked (-1 =
// none yet).
func (f *flushStation) noteBlocked(slot int, dest ASN, at, minBlocked des.Time, ndests int) des.Time {
	if f.blockedSkip {
		if f.blocked[slot] == nil {
			f.blocked[slot] = newBitset(ndests)
		}
		f.blocked[slot].set(dest)
	}
	if minBlocked < 0 || at < minBlocked {
		return at
	}
	return minBlocked
}

// flushTask is the pre-allocated des.Runner for deferred-flush events.
// Each (router, slot) has at most one armed flush event (guarded by
// timers[slot].ev), so one reusable task per slot replaces a per-arming
// closure.
type flushTask struct {
	r    *router
	slot int
}

// Run clears the armed-event marker and retries the flush.
func (t *flushTask) Run() {
	f := &t.r.flush
	f.timers[t.slot].ev = nil
	if bl := f.blocked[t.slot]; bl != nil {
		bl.clearAll() // the armed gate time arrived: re-examine everything
	}
	t.r.tryFlush(t.slot)
}

// markPendingAll queues dest for re-advertisement to every live peer and
// applies the Deshpande–Sikdar timer cancellation when configured.
func (r *router) markPendingAll(dest ASN) {
	f := &r.flush
	now := r.now()
	valid := r.decide.loc.has.has(dest)
	for slot := range r.peers {
		if !r.peerAlive[slot] {
			continue
		}
		f.pending[slot].set(dest)
		if f.blockedSkip {
			// The desired advertisement may have changed — possibly into
			// a withdrawal, which bypasses the announcement gate — so the
			// destination must be re-examined even while its gate runs.
			if bl := f.blocked[slot]; bl != nil {
				bl.clear(dest)
			}
		}
		if r.sim.params.CancelOnChange && valid && f.timers[slot].nextSend > now {
			f.timers[slot].nextSend = now
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
// pending bitset is drained in ascending destination order, so the
// updates to one peer leave in destination order.
func (r *router) tryFlush(slot int) {
	if !r.alive || !r.peerAlive[slot] {
		return
	}
	f := &r.flush
	pend := f.pending[slot]
	if !pend.any() {
		return
	}
	now := r.now()
	peerAllowed := now >= f.timers[slot].nextSend

	// Storm blocked-skip: pending destinations already examined and found
	// gate-blocked are skipped until a gate can have opened. With the
	// per-peer gate (destGate == nil) the opening is detectable right
	// here (peerAllowed), so the skip set is cleared and the full pending
	// list re-examined; with per-destination gates the deferred-flush
	// fire clears it — the armed retry time is the minimum of the noted
	// gate times, so no skipped gate opens before the event. A changed
	// route clears its destination's bit via markPendingAll.
	var bl bitset
	if f.blockedSkip {
		bl = f.blocked[slot]
	}
	var dests []ASN
	if bl != nil && bl.any() {
		if f.destGate == nil && peerAllowed {
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
	adv := &f.advertised[slot]
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
		// A withdrawal passes the gate unless RateLimitWithdrawals; an
		// announcement unless the flap gate lets it bypass.
		gated := r.sim.params.RateLimitWithdrawals
		if desired != 0 {
			gated = !(r.sim.params.FlapGate > 0 && int(r.decide.flapCount[dest]) < r.sim.params.FlapGate)
		}
		if gated && !f.destAllowed(slot, dest, now, peerAllowed) {
			minBlocked = f.noteBlocked(slot, dest, f.gateTime(slot, dest), minBlocked, int(r.ndests))
			continue
		}
		r.send(slot, Update{Dest: int32(dest), Ref: desired})
		if desired == 0 {
			adv.del(dest)
		} else {
			adv.set(dest, desired, &r.sim.spare)
		}
		pend.clear(dest)
		sentAny = true
		if gated {
			sentGated = true
			if f.destGate != nil {
				f.destGate[slot][dest] = now + r.nextMRAI(now)
			}
		}
	}

	if sentGated && f.destGate == nil {
		f.timers[slot].nextSend = now + r.nextMRAI(now)
	}
	if sentAny {
		r.col.NotePacket(now)
	}
	if pend.any() {
		if f.destGate == nil {
			minBlocked = f.timers[slot].nextSend
		}
		r.scheduleFlush(slot, minBlocked)
	}
}

// nextMRAI consults the policy with a fresh load snapshot and applies
// RFC 1771 jitter. Per the paper, the policy (and any dynamic level
// change) takes effect only here, at timer restart.
func (r *router) nextMRAI(now des.Time) time.Duration {
	m := r.flush.policy.MRAI(r.receive.snapshot(now, len(r.peers), r.sim.params.MeanProc()))
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
	f := &r.flush
	t := &f.timers[slot]
	if t.ev != nil && !t.ev.Canceled() {
		if t.ev.At() <= at {
			return
		}
		r.eng.Cancel(t.ev)
	}
	t.ev = r.eng.ScheduleRunnerAt(at, &t.task)
}

// send transmits one route-level update to the slot's peer, stamped with
// the slot the peer knows this router by. Under refInvariants it
// asserts that no update carries its receiver's AS.
func (r *router) send(slot int, u Update) {
	peer := r.peers[slot]
	if r.sim.params.ref&refInvariants != 0 && r.tab.contains(u.Ref, peer.AS) {
		panic(fmt.Sprintf("bgp: router %d sends %v to router %d of AS %d", r.id, r.tab.path(u.Ref), peer.Node, peer.AS))
	}
	u.Slot = peer.Back
	now := r.now()
	r.col.NoteSend(now, r.id, u.IsWithdrawal())
	r.sim.emit(trace.Event{
		At: now, Kind: trace.KindSend, Node: r.id,
		Peer: peer.Node, Dest: int(u.Dest), Withdrawal: u.IsWithdrawal(),
	})
	r.sim.deliver(&peer, u)
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
	loc := &r.decide.loc
	ref, ok := loc.getRef(dest)
	if !ok {
		return 0
	}
	peer := r.peers[slot]
	if bs := r.decide.bestSlot[dest]; bs >= 0 {
		if int(bs) == slot {
			return 0
		}
		fp := &r.peers[bs]
		if fp.Internal && peer.Internal {
			return 0
		}
		if fp.Class != 0 && peer.Class != 0 {
			// Gao–Rexford export rule: self-originated and customer-learned
			// routes are exported to everyone; peer- and provider-learned
			// routes only to customers (class 0).
			return 0
		}
	}
	if peer.Internal {
		return ref
	}
	if r.tab.contains(ref, peer.AS) {
		return 0
	}
	exp := loc.exports[dest]
	if exp == 0 {
		exp = r.tab.prepend(r.as, ref)
		loc.exports[dest] = exp
	}
	return exp
}

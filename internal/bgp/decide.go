package bgp

import (
	"math"

	"bgpsim/internal/trace"
)

// decideStation is a router's second station: the Loc-RIB and the state
// the decision process keeps across batches. bestSlot is the slot each
// Loc-RIB route was learned from (bestNone: no route; bestSelf: locally
// originated), maintained on every Loc-RIB mutation. With damping off
// the Loc-RIB always equals decide(Adj-RIB-In), so bestSlot is the slot
// a full scan would pick. What lives only within one batch is the
// simulator's (batchScratch). incremental is false under damping
// (suppression decays with time, so a cached winner cannot be trusted)
// and under refFullScan. Slot indices are int16: 32k+ peers is beyond
// any modeled topology.
type decideStation struct {
	loc locRIB

	incremental bool
	bestSlot    []int16

	// damper holds RFC 2439 flap-damping state (nil when disabled).
	damper *damper
	// flapCount drives the Deshpande–Sikdar flap gate. Nil unless
	// Params.FlapGate > 0 — no other scheme reads it, and an always-on
	// per-dest counter is real memory at multi-prefix scale. int16 with
	// saturation: the gate compares against Params.FlapGate (single
	// digits in the paper), so saturating at 32767 can only matter for
	// absurd gate settings.
	flapCount []int16
}

// bestSlot sentinel values (real peer slots are >= 0).
const (
	bestNone int16 = -1 // no Loc-RIB entry for the destination
	bestSelf int16 = -2 // locally originated route: never displaced
)

// batchScratch is the working state of one batch: the sets it is
// applied and decided with inside one procTask.Run (applyBatch, then
// decideTouched), and the scan set a router-batch Pop fills and empties
// (seen, newestPerDest). No router's batch runs inside another's, so one
// per simulator serves every router; each set is empty between uses.
// workSlot is the batch's working copy of bestSlot, initialized on a
// destination's first touch (the touched set) and advanced by classify;
// scanNeeded flags destinations only the full scan can resolve.
type batchScratch struct {
	workSlot            []int16
	touched, scanNeeded bitset
	seen                bitset
}

// fit sizes the scratch to ndests destinations for a run with
// parameters p, every set empty.
func (b *batchScratch) fit(p Params, ndests int) {
	b.workSlot = fit(b.workSlot, ndests) // filled per destination on first touch
	b.touched = b.touched.fit(ndests)
	b.scanNeeded = b.scanNeeded.fit(ndests)
	if p.Queue == QueueRouterBatch {
		b.seen = b.seen.fit(ndests)
	}
}

// reset fits the station to ndests destinations for a run with
// parameters p, with an empty Loc-RIB and fresh flap and damping state.
func (d *decideStation) reset(p Params, ndests int) {
	d.loc.fit(ndests)
	d.bestSlot = fit(d.bestSlot, ndests)
	fill(d.bestSlot, bestNone)
	if p.FlapGate > 0 {
		d.flapCount = fit(d.flapCount, ndests)
	} else {
		d.flapCount = nil
	}
	d.restart(p)
	d.incremental = d.damper == nil && p.ref&refFullScan == 0
}

// empty clears the Loc-RIB, as after a reboot.
func (d *decideStation) empty() {
	d.loc.reset()
	fill(d.bestSlot, bestNone)
}

// restart returns the flap counters and the damper to their boot state.
func (d *decideStation) restart(p Params) {
	clear(d.flapCount)
	d.damper = nil
	if p.Damping != nil {
		d.damper = newDamper(p.Damping)
	}
}

// originate installs a locally originated prefix and advertises it.
func (r *router) originate(dest ASN) {
	r.decide.loc.set(dest, emptyRef)
	r.decide.bestSlot[dest] = bestSelf
	r.advertise(dest)
}

// decideTouched runs the decision process once for every destination
// the batch touched, in ascending order, and returns those whose
// Loc-RIB entry changed, in the simulator's touchedScratch.
func (r *router) decideTouched() []ASN {
	b := &r.sim.batch
	touched := b.touched.appendIndices(r.sim.touchedScratch[:0])
	r.sim.touchedScratch = touched
	changed := touched[:0]
	for _, dest := range touched {
		b.touched.clear(dest)
		var routeChanged bool
		switch {
		case !r.decide.incremental:
			routeChanged = r.runDecision(dest)
		case b.scanNeeded.has(dest):
			b.scanNeeded.clear(dest)
			routeChanged = r.runDecision(dest)
		default:
			routeChanged = r.applyWorkingBest(dest)
		}
		if routeChanged {
			changed = append(changed, dest)
		}
	}
	return changed
}

// runDecision recomputes the best route for dest with the full peer-slot
// scan. It returns true when the Loc-RIB entry changed in any way that
// affects advertisements.
func (r *router) runDecision(dest ASN) bool {
	if r.decide.bestSlot[dest] == bestSelf {
		return false // locally originated routes are never displaced
	}
	best, ok := decide(&r.receive.adjIn, dest, r.peers, r.peerAlive, r.decide.damper)
	return r.commitDecision(dest, best, ok)
}

// applyWorkingBest resolves a touched destination's decision without
// scanning the peer slots: when no scan was flagged, classify has
// maintained workSlot as exactly the slot a full decide scan over the
// final Adj-RIB-In would pick, so the winner is read back directly. The
// Loc-RIB commit (and all its observable side effects) is shared with
// runDecision, so the two paths cannot drift.
func (r *router) applyWorkingBest(dest ASN) bool {
	ws := r.sim.batch.workSlot[dest]
	if ws < 0 {
		// A locally originated route is never displaced (bestSelf), and
		// when only removals of never-best routes touched dest the table
		// had no winner before and has none now (bestNone; a Loc-RIB
		// entry would have initialized ws to its slot).
		return false
	}
	ref := r.receive.adjIn.getSlotRef(int(ws), dest)
	if ref == 0 {
		return r.runDecision(dest) // defensive: cache out of sync, rescan
	}
	return r.commitDecision(dest, locEntry{ref: ref, slot: ws}, true)
}

// commitDecision installs a decision-process outcome (winner best, or no
// route when !ok) against the current Loc-RIB entry and performs the
// observable bookkeeping: flap counting, the collector's route-change
// note, and the trace event. Both the full-scan and the incremental
// paths terminate here, which is what keeps their side effects provably
// identical.
func (r *router) commitDecision(dest ASN, best locEntry, ok bool) bool {
	d := &r.decide
	oldRef, hadOld := d.loc.getRef(dest)
	switch {
	case !ok && !hadOld:
		return false
	case !ok:
		d.loc.del(dest)
		d.bestSlot[dest] = bestNone
	case hadOld && best.sameAs(locEntry{ref: oldRef, slot: d.bestSlot[dest]}):
		return false // same winner
	default:
		d.loc.set(dest, best.ref)
		d.bestSlot[dest] = best.slot
	}
	if !hadOld || !ok || oldRef != best.ref {
		if d.flapCount != nil && d.flapCount[dest] != math.MaxInt16 {
			d.flapCount[dest]++
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

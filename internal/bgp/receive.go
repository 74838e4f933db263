package bgp

import (
	"time"

	"bgpsim/internal/des"
	"bgpsim/internal/mrai"
	"bgpsim/internal/trace"
)

// receiveStation is a router's first station: the input queue (FIFO,
// destination-batched as in §4.4, or peer-batched) feeding a serial
// CPU, the Adj-RIB-In the CPU applies updates to, and the load
// accounting whose queue length × mean processing time is the
// "unfinished work" dynamic MRAI reads (§4.3).
type receiveStation struct {
	inbox inbox
	adjIn adjRIBIn

	proc   procTask   // the single in-flight CPU-completion task
	procEv *des.Event // proc's armed completion event; nil = CPU idle (see busy)

	// Load accounting for mrai.Snapshot.
	busyAccum     time.Duration
	busyStart     des.Time
	lastSnapTime  des.Time
	lastSnapBusy  time.Duration
	msgsSinceSnap int
}

// busy reports whether the CPU is working on a unit (its completion is armed).
func (s *receiveStation) busy() bool { return s.procEv != nil }

// reset empties the station for a run with parameters p on a router
// with nslots peers over ndests destinations: an empty Adj-RIB-In, an
// empty inbox keyed for p's queue discipline, an idle CPU and load
// accounting anchored at time zero.
func (s *receiveStation) reset(p Params, nslots, ndests int) {
	s.adjIn.fit(ndests)
	s.inbox.Reset(p, nslots, ndests)
	s.proc.batch, s.procEv = nil, nil
	s.anchor(0)
}

// stop drops the queued updates and the unit on the CPU, whose completion
// is canceled, when the router dies.
func (s *receiveStation) stop(eng *des.Engine) {
	eng.Cancel(s.procEv)
	s.procEv, s.proc.batch = nil, nil
	s.inbox.drop()
}

// anchor restarts the load accounting at time at.
func (s *receiveStation) anchor(at des.Time) {
	s.busyAccum, s.lastSnapBusy = 0, 0
	s.busyStart, s.lastSnapTime = at, at
	s.msgsSinceSnap = 0
}

// snapshot builds the mrai.Snapshot a timer restart at now reads, for a
// router of the given degree whose updates take meanProc on average,
// and rolls the per-window accounting forward.
func (s *receiveStation) snapshot(now des.Time, degree int, meanProc time.Duration) mrai.Snapshot {
	busy := s.busyAccum
	if s.busy() {
		busy += now - s.busyStart
	}
	elapsed := now - s.lastSnapTime
	var util, rate float64
	if elapsed > 0 {
		util = float64(busy-s.lastSnapBusy) / float64(elapsed)
		rate = float64(s.msgsSinceSnap) / elapsed.Seconds()
	}
	s.lastSnapTime = now
	s.lastSnapBusy = busy
	s.msgsSinceSnap = 0
	qlen := s.inbox.Len()
	return mrai.Snapshot{
		Now:            now,
		Degree:         degree,
		QueueLen:       qlen,
		UnfinishedWork: time.Duration(qlen) * meanProc,
		Utilization:    util,
		MsgRate:        rate,
	}
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
// mark it — and here nothing has read one yet, the batch included; a
// storm cannot grow the table without passing through, and a table that
// is not due costs two loads and a compare.
func (t *procTask) Run() {
	if s := t.r.sim; s.tab.used >= s.sweepAt {
		s.sweep()
	}
	batch := t.batch
	t.batch = nil
	t.r.receive.procEv = nil
	t.r.finishProcessing(batch)
}

// enqueue accepts an arriving update and starts the CPU if idle.
func (r *router) enqueue(u Update) {
	if !r.alive {
		return
	}
	s := &r.receive
	s.inbox.Push(u)
	s.msgsSinceSnap++
	r.col.NoteQueueLen(s.inbox.Len())
	r.sim.emit(trace.Event{
		At: r.now(), Kind: trace.KindReceive, Node: r.id,
		Peer: r.peers[u.Slot].Node, Dest: int(u.Dest), Withdrawal: u.IsWithdrawal(),
	})
	if !s.busy() {
		r.startProcessing()
	}
}

// startProcessing pops the next work unit and schedules its completion
// after the drawn processing delay (one draw per update in the unit).
// With SkipNoopUpdates, superfluous updates (no change relative to the
// Adj-RIB-In) are dropped at zero cost and the next unit is tried.
func (r *router) startProcessing() {
	s := &r.receive
	for {
		batch := s.inbox.Pop()
		if len(batch) == 0 {
			return
		}
		discarded := s.inbox.TakeDiscarded()
		if r.sim.params.SkipNoopUpdates {
			kept := batch[:0]
			for _, u := range batch {
				// No change relative to the Adj-RIB-In: a withdrawal of
				// nothing, or the stored route announced again.
				if s.adjIn.getSlotRef(int(u.Slot), int(u.Dest)) == u.Ref {
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
			continue
		}
		var delay time.Duration
		for range batch {
			delay += r.rng.UniformDuration(r.sim.params.ProcMin, r.sim.params.ProcMax)
		}
		s.busyStart = r.now()
		s.proc.batch = batch
		s.procEv = r.eng.ScheduleRunnerAt(s.busyStart+delay, &s.proc)
		return
	}
}

// applyBatch closes the CPU's busy period on a processed work unit and
// folds every message into the Adj-RIB-In, marking its destination
// touched for the decide station (and, in incremental mode, classifying
// it against the working best first).
func (r *router) applyBatch(batch []Update) {
	s, d := &r.receive, &r.decide
	now := r.now()
	s.busyAccum += now - s.busyStart
	r.col.NoteProcessed(now, len(batch))
	r.sim.emit(trace.Event{
		At: now, Kind: trace.KindProcess, Node: r.id,
		Peer: -1, Dest: -1, Value: len(batch),
	})

	touched := d.touched
	incr := d.incremental
	for _, u := range batch {
		// Drop updates from peers that died while the message was queued.
		slot := int(u.Slot)
		if !r.peerAlive[slot] {
			continue
		}
		dest := int(u.Dest)
		if incr {
			// Classify the update against the working best before the
			// Adj-RIB-In mutation below overwrites the previous route.
			if !touched.has(dest) {
				d.workSlot[dest] = d.bestSlot[dest]
			}
			r.classify(slot, u)
		}
		// Flap accounting per RFC 2439: withdrawals and re-advertisements
		// of an existing route are penalized; a peer's first announcement
		// of a destination is not.
		flapped := false
		if u.IsWithdrawal() {
			flapped = s.adjIn.removeSlot(slot, dest)
		} else {
			prev := s.adjIn.getSlotRef(slot, dest)
			flapped = prev != 0 && prev != u.Ref
			s.adjIn.setSlot(slot, dest, u.Ref)
		}
		if flapped && d.damper != nil {
			r.penalize(dest, r.peers[slot].Node)
		}
		touched.set(dest)
	}
}

// classify folds one arriving update into the batch's working-best
// bookkeeping, before the Adj-RIB-In mutation for the update is applied.
// The per-destination batch outcomes:
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
func (r *router) classify(slot int, u Update) {
	d := &r.decide
	dest := int(u.Dest)
	if d.scanNeeded.has(dest) {
		return // already falling back to the full scan for this dest
	}
	ws := d.workSlot[dest]
	if ws == bestSelf {
		return // locally originated: the decision is always a no-op
	}
	if u.IsWithdrawal() {
		if ws >= 0 && int(ws) == slot {
			d.scanNeeded.set(dest) // (c) the working best's route went away
		}
		return // (b) removing a never-best route cannot change the winner
	}
	if ws < 0 {
		d.workSlot[dest] = int16(slot) // first candidate for an empty table
		return
	}
	peer := r.peers[slot]
	cand := r.tab.routeVia(u.Ref, slot)
	wref := r.receive.adjIn.getSlotRef(int(ws), dest)
	if wref == 0 {
		d.scanNeeded.set(dest) // defensive: cache out of sync, rescan
		return
	}
	if int(ws) == slot {
		// Re-announcement on the winning slot itself: same peer, so only
		// the path ranking can move. An equal-or-better replacement keeps
		// winning; a strictly worse one may let another route overtake.
		prev := r.tab.routeVia(wref, slot)
		if betterRoute(prev, peer, cand, peer) {
			d.scanNeeded.set(dest) // (c) the working best's route worsened
		}
		return
	}
	wpeer := r.peers[ws]
	wentry := r.tab.routeVia(wref, int(ws))
	if betterRoute(cand, peer, wentry, wpeer) {
		d.workSlot[dest] = int16(slot) // (a) strictly better: new working best
	}
	// Otherwise (b): does not beat the working best, a decision no-op.
}

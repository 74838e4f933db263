package bgp

import (
	"slices"
	"testing"
	"time"
	"unsafe"

	"bgpsim/internal/mrai"
	"bgpsim/internal/topology"
)

// strictParams removes the randomness of a router's own timing so tests
// can assert exact instants: constant MRAI, no jitter, fixed 10ms
// processing. A cold Start still staggers originations.
func strictParams(mraiVal time.Duration) Params {
	p := DefaultParams()
	p.MRAI = mrai.Constant(mraiVal)
	p.JitterTimers = false
	p.ProcMin, p.ProcMax = 10*time.Millisecond, 10*time.Millisecond
	p.ref = refInvariants
	return p
}

// lineSim builds a 3-node line 0-1-2 and returns the simulator.
func lineSim(t *testing.T, p Params) *Simulator {
	t.Helper()
	nw := topology.NewNetwork(3)
	_ = nw.AddLink(0, 1, false)
	_ = nw.AddLink(1, 2, false)
	sim, err := New(nw, p)
	if err != nil {
		t.Fatal(err)
	}
	sim.widenDestsForTest(128)
	return sim
}

// setLocForTest installs path as dest's Loc-RIB winner learned from peer
// node from (-1 for a locally originated route), maintaining the
// bestSlot provenance the packed Loc-RIB derives entries from.
func (r *router) setLocForTest(dest ASN, path Path, from NodeID) {
	if from == -1 {
		r.decide.loc.set(dest, emptyRef)
		r.decide.bestSlot[dest] = bestSelf
		return
	}
	r.decide.loc.set(dest, r.sim.tab.intern(path))
	r.decide.bestSlot[dest] = int16(mustPeer(r.peers, from))
}

// advertisedPath returns what the router last announced to the slot's
// peer for dest.
func (r *router) advertisedPath(slot int, dest ASN) (Path, bool) {
	ref := r.flush.advertised[slot].get(dest)
	return r.sim.tab.path(ref), ref != 0
}

// desiredPath materializes what the router would advertise to the
// slot's peer for dest (nil: nothing).
func (r *router) desiredPath(dest ASN, slot int) Path {
	return r.tab.path(r.desiredAdvert(dest, slot))
}

func TestDesiredAdvertRules(t *testing.T) {
	// Router 1 (AS 1) peers: slot 0 -> node 0 (AS 0), slot 1 -> node 2 (AS 2).
	sim := lineSim(t, strictParams(time.Second))
	r := sim.routers[1]

	// No route at all.
	if got := r.desiredPath(7, 0); got != nil {
		t.Errorf("no-route advert = %v", got)
	}

	// Route learned from node 0: advertise to node 2 with own AS
	// prepended; never back to node 0 (split horizon).
	r.setLocForTest(7, Path{0, 7}, 0)
	if got := r.desiredPath(7, 0); got != nil {
		t.Errorf("split horizon violated: %v", got)
	}
	if got := r.desiredPath(7, 1); !pathsEqual(got, Path{1, 0, 7}) {
		t.Errorf("external advert = %v, want [1 0 7]", got)
	}
	if got, want := r.desiredAdvert(7, 1), r.tab.intern(Path{1, 0, 7}); got != want {
		t.Errorf("advert ref %d is not the interned path's ref %d", got, want)
	}

	// Peer's AS already on the path: suppress.
	r.setLocForTest(8, Path{0, 2, 8}, 0)
	if got := r.desiredPath(8, 1); got != nil {
		t.Errorf("loop advert to peer on path: %v", got)
	}

	// Own prefix: prepend own AS only.
	r.setLocForTest(1, nil, -1)
	if got := r.desiredPath(1, 1); !pathsEqual(got, Path{1}) {
		t.Errorf("own prefix advert = %v, want [1]", got)
	}
}

func TestDesiredAdvertIBGPRules(t *testing.T) {
	// AS 0 has routers 0,1 (IBGP); router 1 also peers externally with 2.
	nw := topology.NewNetwork(3)
	nw.SetAS(1, 0)
	nw.SetAS(2, 2)
	_ = nw.AddLink(0, 1, true)
	_ = nw.AddLink(1, 2, false)
	sim, err := New(nw, strictParams(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	sim.widenDestsForTest(128)
	r1 := sim.routers[1] // slots: 0 -> node 0 (internal), 1 -> node 2 (external)

	// EBGP-learned route goes to the IBGP peer unchanged.
	r1.setLocForTest(9, Path{2, 9}, 2)
	if got := r1.desiredPath(9, 0); !pathsEqual(got, Path{2, 9}) {
		t.Errorf("IBGP advert = %v, want unchanged [2 9]", got)
	}
	// ...but not back to the external peer it came from.
	if got := r1.desiredPath(9, 1); got != nil {
		t.Errorf("advert back to source: %v", got)
	}

	// IBGP-learned route must not be relayed to IBGP peers.
	r1.setLocForTest(5, Path{7, 5}, 0) // slot 0 is the internal peer
	if got := r1.desiredPath(5, 0); got != nil {
		t.Errorf("IBGP relay to source: %v", got)
	}
	// It IS advertised externally, with own AS prepended.
	if got := r1.desiredPath(5, 1); !pathsEqual(got, Path{0, 7, 5}) {
		t.Errorf("external advert of IBGP route = %v, want [0 7 5]", got)
	}
}

func TestMRAIGatesSecondAnnouncement(t *testing.T) {
	const m = 10 * time.Second
	sim := lineSim(t, strictParams(m))
	r1 := sim.routers[1]

	// Originate at t=0: first announcement is immediate, timer arms.
	r1.originate(1)
	slotTo2 := mustPeer(r1.peers, 2)
	if r1.flush.timers[slotTo2].nextSend != m {
		t.Fatalf("nextSend = %v, want %v (no jitter)", r1.flush.timers[slotTo2].nextSend, m)
	}
	if got, _ := r1.advertisedPath(slotTo2, 1); !pathsEqual(got, Path{1}) {
		t.Fatalf("first announcement not sent: %v", got)
	}

	// A new route appears while the timer runs: it must wait until t=m.
	ribIn(r1).set(7, 0, Path{0, 7})
	if !r1.runDecision(7) {
		t.Fatal("decision did not change")
	}
	r1.markPendingAll(7)
	r1.flushAll()
	if _, sent := r1.advertisedPath(slotTo2, 7); sent {
		t.Fatal("announcement escaped the MRAI gate")
	}
	if r1.flush.timers[slotTo2].ev == nil {
		t.Fatal("no deferred flush scheduled")
	}
	if at := r1.flush.timers[slotTo2].ev.At(); at != m {
		t.Fatalf("flush scheduled at %v, want %v", at, m)
	}

	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if got, _ := r1.advertisedPath(slotTo2, 7); !pathsEqual(got, Path{1, 0, 7}) {
		t.Fatalf("deferred announcement = %v, want [1 0 7]", got)
	}
	// The deferred send rearmed the timer from t=m.
	if r1.flush.timers[slotTo2].nextSend != 2*m {
		t.Errorf("timer after deferred send = %v, want %v", r1.flush.timers[slotTo2].nextSend, 2*m)
	}
}

func TestWithdrawalBypassesMRAI(t *testing.T) {
	const m = 10 * time.Second
	sim := lineSim(t, strictParams(m))
	r1 := sim.routers[1]
	slotTo2 := mustPeer(r1.peers, 2)

	r1.originate(1) // timer now armed until t=m
	ribIn(r1).set(7, 0, Path{0, 7})
	r1.runDecision(7)
	r1.markPendingAll(7)
	// Route dies again before the timer expires: net effect nothing was
	// ever advertised, so nothing (not even a withdrawal) should go out.
	ribIn(r1).remove(7, 0)
	r1.runDecision(7)
	r1.flushAll()
	if _, ok := r1.advertisedPath(slotTo2, 7); ok {
		t.Fatal("phantom advertisement")
	}

	// Now advertise something for real, then kill it while the timer runs:
	// the withdrawal must leave immediately, not at timer expiry.
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// Advance past the origination-armed timers so the announcement for
	// dest 8 goes out immediately.
	if err := sim.RunUntil(2 * m); err != nil {
		t.Fatal(err)
	}
	now := sim.Now()
	ribIn(r1).set(8, 0, Path{0, 8})
	r1.runDecision(8)
	r1.markPendingAll(8)
	r1.flushAll() // sends at `now`, rearms timer to now+m
	if got, _ := r1.advertisedPath(slotTo2, 8); !pathsEqual(got, Path{1, 0, 8}) {
		t.Fatal("announcement for dest 8 missing")
	}
	before := sim.col.TotalMessages
	ribIn(r1).remove(8, 0)
	r1.runDecision(8)
	r1.markPendingAll(8)
	r1.flushAll()
	if _, ok := r1.advertisedPath(slotTo2, 8); ok {
		t.Fatal("withdrawal blocked by MRAI")
	}
	if sim.col.TotalMessages == before {
		t.Fatal("no withdrawal message sent")
	}
	if r1.flush.timers[slotTo2].nextSend <= now {
		t.Error("timer was not armed by the announcement")
	}
}

func TestDuplicateAnnouncementsSuppressed(t *testing.T) {
	sim := lineSim(t, strictParams(100*time.Millisecond))
	r1 := sim.routers[1]
	slotTo2 := mustPeer(r1.peers, 2)
	r1.originate(1)
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	sent := sim.col.TotalMessages
	// Re-marking the same destination with an unchanged route must not
	// produce a message.
	r1.markPendingAll(1)
	r1.flushAll()
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if sim.col.TotalMessages != sent {
		t.Errorf("duplicate advert sent: %d -> %d", sent, sim.col.TotalMessages)
	}
	_ = slotTo2
}

func TestProcessingSerializesUpdates(t *testing.T) {
	// Two updates arriving together at a router with 10ms processing must
	// finish at 10ms and 20ms after arrival, not both at 10ms.
	sim := lineSim(t, strictParams(time.Second))
	r1 := sim.routers[1]
	r1.enqueue(updateFrom(r1, 0, 50, Path{0, 50}))
	r1.enqueue(updateFrom(r1, 0, 51, Path{0, 51}))
	if !r1.receive.busy() {
		t.Fatal("router idle with queued work")
	}
	// At 15ms only the first update is done; router 1 is still busy with
	// the second (downstream routers have not even received anything yet).
	if err := sim.RunUntil(15 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if sim.col.TotalProcessed != 1 {
		t.Fatalf("processed = %d at 15ms, want 1 (serial CPU)", sim.col.TotalProcessed)
	}
	if !r1.receive.busy() {
		t.Fatal("router idle mid-service")
	}
	if err := sim.RunUntil(25 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if sim.col.TotalProcessed != 2 {
		t.Fatalf("processed = %d at 25ms, want 2", sim.col.TotalProcessed)
	}
	if r1.receive.busy() {
		t.Fatal("router busy after draining")
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadRouterIgnoresTraffic(t *testing.T) {
	sim := lineSim(t, strictParams(time.Second))
	r1 := sim.routers[1]
	r1.kill()
	r1.enqueue(updateFrom(r1, 0, 50, Path{0, 50}))
	if r1.receive.busy() || r1.receive.inbox.Len() != 0 {
		t.Error("dead router accepted work")
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPeerDownInvalidatesRoutesAndCleansState(t *testing.T) {
	sim := lineSim(t, strictParams(100*time.Millisecond))
	sim.Start()
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	r1 := sim.routers[1]
	slotTo0 := mustPeer(r1.peers, 0)
	if _, ok := r1.decide.loc.getRef(0); !ok {
		t.Fatal("no route to AS 0 before failure")
	}
	sim.routers[0].kill()
	r1.peerDown(slotTo0)
	if _, ok := r1.decide.loc.getRef(0); ok {
		t.Error("route via dead peer survived")
	}
	if r1.peerAlive[slotTo0] {
		t.Error("peer still alive")
	}
	if r1.flush.advertised[slotTo0].any() || r1.flush.pending[slotTo0].any() {
		t.Error("per-slot state not cleared")
	}
	// Double peerDown is a no-op.
	r1.peerDown(slotTo0)
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// Node 2 must have learned the withdrawal of AS 0.
	if _, ok := sim.routers[2].decide.loc.getRef(0); ok {
		t.Error("withdrawal did not propagate to node 2")
	}
}

// TestSenderSuppressesPathThroughReceiversAS pins the sender's half of
// "no update carries its receiver's AS" on the line 0-1-2: router 1
// announces to node 0 the route it learns from node 2 until that route's
// path runs through AS 0, and then withdraws it instead (under
// refInvariants, send panics on the looped announcement). The receiver
// checks nothing: it stores what arrives.
func TestSenderSuppressesPathThroughReceiversAS(t *testing.T) {
	sim := lineSim(t, strictParams(100*time.Millisecond))
	r0, r1 := sim.routers[0], sim.routers[1]
	r1.enqueue(updateFrom(r1, 2, 9, Path{2, 9}))
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if got, _ := ribIn(r0).get(9, 1); !slices.Equal(got, Path{1, 2, 9}) {
		t.Fatalf("node 0 holds %v from router 1, want [1 2 9]", got)
	}
	r1.enqueue(updateFrom(r1, 2, 9, Path{2, 0, 9}))
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if loc, ok := sim.LocPath(1, 9); !ok || !slices.Equal(loc, Path{2, 0, 9}) {
		t.Errorf("router 1 holds %v (%v), want [2 0 9]", loc, ok)
	}
	if got, ok := ribIn(r0).get(9, 1); ok {
		t.Errorf("node 0 holds %v from router 1, want the route withdrawn", got)
	}
}

func TestSnapshotAccounting(t *testing.T) {
	sim := lineSim(t, strictParams(time.Second))
	r1 := sim.routers[1]
	r1.enqueue(updateFrom(r1, 0, 50, Path{0, 50}))
	r1.enqueue(updateFrom(r1, 0, 51, Path{0, 51}))
	r1.enqueue(updateFrom(r1, 0, 52, Path{0, 52}))
	// One is in service, two queued.
	snap := r1.receive.snapshot(sim.Now(), len(r1.peers), sim.params.MeanProc())
	if snap.QueueLen != 2 {
		t.Errorf("QueueLen = %d, want 2", snap.QueueLen)
	}
	wantWork := 2 * sim.params.MeanProc()
	if snap.UnfinishedWork != wantWork {
		t.Errorf("UnfinishedWork = %v, want %v", snap.UnfinishedWork, wantWork)
	}
	if snap.Degree != 2 {
		t.Errorf("Degree = %d", snap.Degree)
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if got := r1.receive.snapshot(sim.Now(), len(r1.peers), sim.params.MeanProc()).QueueLen; got != 0 {
		t.Errorf("QueueLen after drain = %d", got)
	}
}

func TestSnapshotUtilizationAndRate(t *testing.T) {
	// White-box: craft the accounting directly, since the MRAI policy's
	// own snapshots roll the measurement window during a live run.
	sim := lineSim(t, strictParams(time.Second))
	r1 := sim.routers[1]
	r1.receive.busyAccum = 50 * time.Millisecond
	r1.receive.lastSnapTime = 0
	r1.receive.lastSnapBusy = 0
	r1.receive.msgsSinceSnap = 20
	snap := r1.receive.snapshot(100*time.Millisecond, len(r1.peers), sim.params.MeanProc())
	if snap.Utilization != 0.5 {
		t.Errorf("Utilization = %v, want 0.5", snap.Utilization)
	}
	if snap.MsgRate != 200 {
		t.Errorf("MsgRate = %v, want 200/s", snap.MsgRate)
	}
	// The window rolled: an immediate second snapshot sees ~zero.
	snap2 := r1.receive.snapshot(200*time.Millisecond, len(r1.peers), sim.params.MeanProc())
	if snap2.Utilization != 0 || snap2.MsgRate != 0 {
		t.Errorf("window did not roll: util=%v rate=%v", snap2.Utilization, snap2.MsgRate)
	}
	// Zero-elapsed snapshot must not divide by zero.
	snap3 := r1.receive.snapshot(200*time.Millisecond, len(r1.peers), sim.params.MeanProc())
	if snap3.Utilization != 0 {
		t.Errorf("zero-elapsed utilization = %v", snap3.Utilization)
	}
}

func TestParamsValidate(t *testing.T) {
	good := DefaultParams()
	if err := good.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	mutations := []func(*Params){
		func(p *Params) { p.MRAI = nil },
		func(p *Params) { p.Queue = QueueDiscipline(99) },
		func(p *Params) { p.ProcMin = -1 },
		func(p *Params) { p.ProcMax = p.ProcMin - 1 },
		func(p *Params) { p.ExtDelay = -1 },
		func(p *Params) { p.IntDelay = -1 },
		func(p *Params) { p.DetectDelay = -1 },
		func(p *Params) { p.FlapGate = -1 },
		// Per-destination gates never run the per-peer timer that
		// CancelOnChange cancels.
		func(p *Params) { p.CancelOnChange, p.PerDestinationMRAI = true, true },
	}
	for i, mutate := range mutations {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestQueueDisciplineString(t *testing.T) {
	if QueueFIFO.String() != "fifo" || QueueBatched.String() != "batched" ||
		QueueRouterBatch.String() != "router-batch" {
		t.Error("discipline names wrong")
	}
	if QueueDiscipline(9).String() == "" {
		t.Error("unknown discipline empty")
	}
}

func TestMeanProc(t *testing.T) {
	p := DefaultParams()
	if got := p.MeanProc(); got != 15500*time.Microsecond {
		t.Errorf("MeanProc = %v, want 15.5ms", got)
	}
}

// TestRouterFitsItsSizeClass keeps a router in Go's 640-byte malloc size
// class: the next class up is 704 bytes, 64 more per router of every
// simulator.
func TestRouterFitsItsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(router{}); n > 640 {
		t.Errorf("router is %d bytes, want <= 640 (inbox %d, decide %d, flush %d)", n,
			unsafe.Sizeof(inbox{}), unsafe.Sizeof(decideStation{}), unsafe.Sizeof(flushStation{}))
	}
}

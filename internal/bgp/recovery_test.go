package bgp

import (
	"testing"
	"time"

	"bgpsim/internal/des"
	"bgpsim/internal/topology"
	"bgpsim/internal/trace"
)

func TestRecoveryRestoresFullConnectivity(t *testing.T) {
	rng := des.NewRNG(51)
	nw, err := topology.SkewedNetwork(topology.Skewed7030(40), rng)
	if err != nil {
		t.Fatal(err)
	}
	sim := mustSim(t, nw, fastParams(51))
	fail := topology.NearestNodes(nw, topology.GridCenter(nw), 6, nil)
	if _, err := sim.ConvergeAndFail(fail); err != nil {
		t.Fatal(err)
	}
	// Bring everything back and re-converge: the network must return to
	// exactly the full-topology shortest-path state.
	sim.ScheduleRecovery(sim.Now()+SettleMargin, fail)
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	for _, id := range fail {
		if !sim.Alive(id) {
			t.Fatalf("node %d not revived", id)
		}
	}
	assertShortestPaths(t, sim)
}

func TestPartialRecovery(t *testing.T) {
	rng := des.NewRNG(53)
	nw, err := topology.SkewedNetwork(topology.Skewed7030(40), rng)
	if err != nil {
		t.Fatal(err)
	}
	sim := mustSim(t, nw, fastParams(53))
	fail := topology.NearestNodes(nw, topology.GridCenter(nw), 6, nil)
	if _, err := sim.ConvergeAndFail(fail); err != nil {
		t.Fatal(err)
	}
	// Revive only half; the invariant must hold on the mixed topology.
	sim.ScheduleRecovery(sim.Now()+SettleMargin, fail[:3])
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	for _, id := range fail[:3] {
		if !sim.Alive(id) {
			t.Fatalf("node %d not revived", id)
		}
	}
	for _, id := range fail[3:] {
		if sim.Alive(id) {
			t.Fatalf("node %d revived unexpectedly", id)
		}
	}
	assertShortestPaths(t, sim)
}

func TestRecoveryOnLineReannouncesPrefix(t *testing.T) {
	nw := buildLine(t, 4)
	sim := mustSim(t, nw, fastParams(55))
	if _, err := sim.ConvergeAndFail([]int{1}); err != nil {
		t.Fatal(err)
	}
	if _, ok := sim.LocPath(0, 3); ok {
		t.Fatal("cut not effective")
	}
	sim.ScheduleRecovery(sim.Now()+SettleMargin, []int{1})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// AS 1's prefix is back everywhere and the cut healed.
	if p, ok := sim.LocPath(0, 3); !ok || len(p) != 3 {
		t.Errorf("node 0 -> AS 3 after recovery: %v ok=%v", p, ok)
	}
	if p, ok := sim.LocPath(3, 1); !ok || len(p) != 2 {
		t.Errorf("node 3 -> AS 1 after recovery: %v ok=%v", p, ok)
	}
	assertShortestPaths(t, sim)
}

func TestRecoveryOfAliveNodeIsNoOp(t *testing.T) {
	nw := buildLine(t, 3)
	sim := mustSim(t, nw, fastParams(57))
	sim.Start()
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	before, _ := sim.LocPath(0, 2)
	sim.ScheduleRecovery(sim.Now()+time.Second, []int{1})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	after, ok := sim.LocPath(0, 2)
	if !ok || !pathsEqual(before, after) {
		t.Errorf("recovering an alive node changed routes: %v -> %v", before, after)
	}
}

func TestRecoveryEmitsTraceEvents(t *testing.T) {
	rec := &trace.Recorder{}
	nw := buildLine(t, 4)
	p := fastParams(59)
	p.Tracer = rec
	sim := mustSim(t, nw, p)
	if _, err := sim.ConvergeAndFail([]int{1}); err != nil {
		t.Fatal(err)
	}
	sim.ScheduleRecovery(sim.Now()+SettleMargin, []int{1})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	counts := rec.CountByKind()
	if counts[trace.KindNodeFailure] != 1 {
		t.Errorf("failure events = %d", counts[trace.KindNodeFailure])
	}
	if counts[trace.KindNodeRecovery] != 1 {
		t.Errorf("recovery events = %d", counts[trace.KindNodeRecovery])
	}
	if counts[trace.KindSessionDown] != 2 {
		t.Errorf("session-down events = %d, want 2 (both neighbors)", counts[trace.KindSessionDown])
	}
	if counts[trace.KindSend] == 0 || counts[trace.KindReceive] == 0 ||
		counts[trace.KindProcess] == 0 || counts[trace.KindRouteChange] == 0 ||
		counts[trace.KindTimerRestart] == 0 {
		t.Errorf("missing event kinds: %v", counts)
	}
	// Sends and receives must balance: no links drop messages in this
	// failure-free-after-recovery run except those in flight at failure.
	if counts[trace.KindReceive] > counts[trace.KindSend] {
		t.Errorf("more receives (%d) than sends (%d)", counts[trace.KindReceive], counts[trace.KindSend])
	}
}

// TestReviveDropsUnitFromBeforeDeath pins that a router revived while
// the unit on its CPU at death was still due does not complete it. On
// the line 0–1–2 with a fixed 20 ms per update, router 1 takes an
// update at T, dies at T+1 ms and comes back at T+2 ms. Every unit it
// completes afterwards must be one it started after the revival: none
// completes before T+22 ms, none is empty, and consecutive completions
// are a full processing delay apart, as one serial CPU allows. With
// 1 ms links the peers' tables arrive before the stale unit was due;
// with 25 ms links after it.
func TestReviveDropsUnitFromBeforeDeath(t *testing.T) {
	const proc = 20 * time.Millisecond
	for _, link := range []time.Duration{time.Millisecond, 25 * time.Millisecond} {
		t.Run(link.String(), func(t *testing.T) {
			rec := &trace.Recorder{}
			p := fastParams(61)
			p.ProcMin, p.ProcMax = proc, proc
			p.ExtDelay = link
			p.Tracer = rec
			sim := mustSim(t, buildLine(t, 3), p)
			if err := sim.ConvergeInitial(); err != nil {
				t.Fatal(err)
			}
			at := sim.Now() + SettleMargin
			r1 := sim.routers[1]
			sim.ScheduleControl(at, func() { r1.enqueue(updateFrom(r1, 0, 0, nil)) })
			sim.ScheduleFailure(at+time.Millisecond, []int{1})
			revived := at + 2*time.Millisecond
			sim.ScheduleRecovery(revived, []int{1})
			if err := sim.Run(); err != nil {
				t.Fatal(err)
			}
			last := revived
			units := 0
			for _, e := range rec.Events() {
				if e.Kind != trace.KindProcess || e.Node != 1 || e.At < revived {
					continue
				}
				if e.Value == 0 || e.At-last < proc {
					t.Errorf("router 1 completed a unit of %d updates at T+%v, %v after the revival or its previous unit",
						e.Value, e.At-at, e.At-last)
				}
				last = e.At
				units++
			}
			if units == 0 {
				t.Error("router 1 completed no unit after its revival")
			}
		})
	}
}

package bgp

import (
	"testing"
	"time"

	"bgpsim/internal/des"
	"bgpsim/internal/topology"
)

func TestDampingConfigValidate(t *testing.T) {
	if err := DefaultDamping().Validate(); err != nil {
		t.Fatalf("default damping invalid: %v", err)
	}
	bad := []DampingConfig{
		{Penalty: 0, SuppressThreshold: 2000, ReuseThreshold: 750, HalfLife: time.Second},
		{Penalty: 1000, SuppressThreshold: 500, ReuseThreshold: 750, HalfLife: time.Second},
		{Penalty: 1000, SuppressThreshold: 2000, ReuseThreshold: 0, HalfLife: time.Second},
		{Penalty: 1000, SuppressThreshold: 2000, ReuseThreshold: 750, HalfLife: 0},
		{Penalty: 1000, SuppressThreshold: 2000, ReuseThreshold: 750, HalfLife: time.Second, Ceiling: -1},
	}
	for i, c := range bad {
		c := c
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestDampEntryDecayHalves(t *testing.T) {
	cfg := DefaultDamping()
	e := &dampEntry{penalty: 2000, lastDecay: 0}
	e.decay(des.Time(cfg.HalfLife), cfg)
	if e.penalty < 999 || e.penalty > 1001 {
		t.Errorf("penalty after one half-life = %v, want ≈1000", e.penalty)
	}
	e.decay(des.Time(cfg.HalfLife), cfg) // same instant: no further decay
	if e.penalty < 999 || e.penalty > 1001 {
		t.Errorf("penalty decayed at same instant: %v", e.penalty)
	}
	// Tiny residue snaps to zero.
	e2 := &dampEntry{penalty: 10, lastDecay: 0}
	e2.decay(des.Time(10*cfg.HalfLife), cfg)
	if e2.penalty != 0 {
		t.Errorf("residue = %v, want 0", e2.penalty)
	}
}

func TestPenalizeSuppressesAfterRepeatedFlaps(t *testing.T) {
	nw := buildLine(t, 3)
	p := strictParams(time.Second)
	p.Damping = DefaultDamping()
	sim := mustSim(t, nw, p)
	r1 := sim.routers[1]
	if r1.decide.damper == nil {
		t.Fatal("damper not installed")
	}
	// First flap: penalty 1000, below threshold.
	if r1.penalize(9, 0) {
		t.Error("suppressed after one flap")
	}
	if r1.decide.damper.isSuppressed(9, 0) {
		t.Error("isSuppressed after one flap")
	}
	// Second flap at the same instant: 2000 is not > 2000; third crosses.
	if r1.penalize(9, 0) {
		t.Error("suppressed after two flaps (2000 is not > threshold)")
	}
	if !r1.penalize(9, 0) {
		t.Error("not suppressed after three flaps")
	}
	if !r1.decide.damper.isSuppressed(9, 0) {
		t.Error("isSuppressed false after suppression")
	}
	// A suppressed route is invisible to the decision process.
	ribIn(r1).set(9, 0, Path{0, 9})
	if _, ok := decide(&r1.receive.adjIn, 9, r1.peers, r1.peerAlive, r1.decide.damper); ok {
		t.Error("suppressed route selected")
	}
	// The reuse event eventually lifts suppression and reinstates it.
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if r1.decide.damper.isSuppressed(9, 0) {
		t.Error("suppression never lifted")
	}
	if _, ok := r1.decide.loc.getRef(9); !ok || r1.decide.bestSlot[9] != int16(mustPeer(r1.peers, 0)) {
		t.Errorf("route not reinstated after reuse: ok=%v slot %d", ok, r1.decide.bestSlot[9])
	}
}

func TestPenaltyCeilingBoundsSuppression(t *testing.T) {
	nw := buildLine(t, 3)
	p := strictParams(time.Second)
	p.Damping = DefaultDamping()
	sim := mustSim(t, nw, p)
	r1 := sim.routers[1]
	for i := 0; i < 100; i++ {
		r1.penalize(9, 0)
	}
	e := r1.decide.damper.entry(9, 0)
	if e.penalty > p.Damping.ceiling() {
		t.Errorf("penalty %v exceeds ceiling %v", e.penalty, p.Damping.ceiling())
	}
	// Even after heavy flapping, suppression lifts in bounded time:
	// ceiling 8000 -> 750 is log2(8000/750) ≈ 3.4 half-lives.
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if r1.decide.damper.isSuppressed(9, 0) {
		t.Error("suppression did not end")
	}
	if sim.Now() > des.Time(5*p.Damping.HalfLife) {
		t.Errorf("reuse took %v, want < 5 half-lives", sim.Now())
	}
}

func TestDampingDelaysRecoveryReconvergence(t *testing.T) {
	// The classic result (Mao et al.) concerns flap-and-return: a failure
	// withdraws routes (one flap) and the subsequent recovery re-announces
	// them (another flap), pushing penalties over the suppression
	// threshold exactly when the routes become valid again. With a
	// deployment-style long half-life, the network reaches its final
	// state only when the reuse timers fire — far later than without
	// damping. (Under *permanent* failures, short-window damping can even
	// shorten convergence by curbing exploration; see
	// TestDampedRunStillReachesSteadyState.)
	rng := des.NewRNG(61)
	nw, err := topology.SkewedNetwork(topology.Skewed7030(40), rng)
	if err != nil {
		t.Fatal(err)
	}
	fail := topology.NearestNodes(nw, topology.GridCenter(nw), 6, nil)

	run := func(damping *DampingConfig) time.Duration {
		p := fastParams(61)
		p.Damping = damping
		sim := mustSim(t, nw.Clone(), p)
		if _, err := sim.ConvergeAndFail(fail); err != nil {
			t.Fatal(err)
		}
		recoverAt := sim.Now() + SettleMargin
		sim.ScheduleRecovery(recoverAt, fail)
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		assertShortestPaths(t, sim) // final state must be correct either way
		return sim.Now() - recoverAt
	}
	plain := run(nil)
	damped := run(&DampingConfig{
		Penalty:           1000,
		SuppressThreshold: 1500, // two flaps (withdraw + re-announce) suppress
		ReuseThreshold:    750,
		HalfLife:          60 * time.Second, // deployment-like window
	})
	if damped <= plain {
		t.Errorf("damping did not delay recovery re-convergence: %v vs plain %v", damped, plain)
	}
	// Suppressed routes come back only after a reuse window.
	if damped < 30*time.Second {
		t.Errorf("damped recovery %v implausibly short for a 60s half-life", damped)
	}
	t.Logf("recovery reconvergence: plain=%v damped=%v", plain, damped)
}

func TestDampedRunStillReachesSteadyState(t *testing.T) {
	// With damping, transiently suppressed routes must be reinstated, so
	// the final state still satisfies the shortest-path invariant.
	rng := des.NewRNG(67)
	nw, err := topology.SkewedNetwork(topology.Skewed7030(30), rng)
	if err != nil {
		t.Fatal(err)
	}
	p := fastParams(67)
	p.Damping = DefaultDamping()
	sim := mustSim(t, nw, p)
	fail := topology.NearestNodes(nw, topology.GridCenter(nw), 3, nil)
	if _, err := sim.ConvergeAndFail(fail); err != nil {
		t.Fatal(err)
	}
	assertShortestPaths(t, sim)
}

func TestReviveResetsDamping(t *testing.T) {
	nw := buildLine(t, 3)
	p := strictParams(time.Second)
	p.Damping = DefaultDamping()
	sim := mustSim(t, nw, p)
	r1 := sim.routers[1]
	r1.penalize(9, 0)
	r1.penalize(9, 0)
	r1.penalize(9, 0)
	r1.kill()
	r1.revive()
	if r1.decide.damper.isSuppressed(9, 0) {
		t.Error("damping state survived reboot")
	}
}

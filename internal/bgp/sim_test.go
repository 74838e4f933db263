package bgp

import (
	"math"
	"strings"
	"testing"
	"time"

	"bgpsim/internal/des"
	"bgpsim/internal/mrai"
	"bgpsim/internal/topology"
)

// skewed is the Skewed 70-30 world of n routers drawn from seed.
func skewed(t testing.TB, n int, seed int64) *topology.Network {
	t.Helper()
	nw, err := topology.SkewedNetwork(topology.Skewed7030(n), des.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// buildLine returns the AS-level path topology 0-1-2-...-(n-1).
func buildLine(t *testing.T, n int) *topology.Network {
	t.Helper()
	nw := topology.NewNetwork(n)
	for i := 1; i < n; i++ {
		if err := nw.AddLink(i-1, i, false); err != nil {
			t.Fatal(err)
		}
	}
	placeOnLine(nw)
	return nw
}

// buildRing returns the AS-level cycle topology on n nodes.
func buildRing(t *testing.T, n int) *topology.Network {
	t.Helper()
	nw := buildLine(t, n)
	if err := nw.AddLink(n-1, 0, false); err != nil {
		t.Fatal(err)
	}
	return nw
}

func placeOnLine(nw *topology.Network) {
	for i := 0; i < nw.NumNodes(); i++ {
		nw.SetPos(i, topology.Point{X: float64(i) * 10, Y: 500})
	}
}

func fastParams(seed int64) Params {
	p := DefaultParams()
	p.MRAI = mrai.Constant(500 * time.Millisecond)
	p.Seed = seed
	return p
}

func mustSim(t *testing.T, nw *topology.Network, p Params) *Simulator {
	t.Helper()
	sim, err := New(nw, p)
	if err != nil {
		t.Fatal(err)
	}
	// White-box tests inject destination ids no AS in the small test
	// topologies originates; widen the dense dest table to accept them
	// (the map-based RIB accepted any id implicitly).
	sim.widenDestsForTest(128)
	return sim
}

// widenDestsForTest grows every router's dense destination table to at
// least n entries so white-box tests can poke out-of-band destination
// ids. It rewinds router state, so it must run before any simulation
// activity.
func (s *Simulator) widenDestsForTest(n int) {
	if n <= s.ndests {
		return
	}
	s.ndests = n
	s.spare.fit(n)
	s.batch.fit(s.params, n)
	grown := make([]NodeID, n)
	for i := range grown {
		grown[i] = -1
	}
	copy(grown, s.origins)
	s.origins = grown
	for _, r := range s.routers {
		r.reset(s.params, n)
	}
}

func TestNewValidatesParams(t *testing.T) {
	nw := buildLine(t, 3)
	bad := DefaultParams()
	bad.MRAI = nil
	if _, err := New(nw, bad); err == nil {
		t.Error("nil MRAI factory accepted")
	}
	if _, err := New(topology.NewNetwork(0), DefaultParams()); err == nil {
		t.Error("empty network accepted")
	}
}

// TestNewRejectsUnpackableTopology pins the guard on the packed 32-bit
// route encoding: an AS number or a destination index (ASes x prefixes
// per AS) that would not fit is an error from New and from Rebind, which
// leaves the simulator as it was — never a truncated value.
func TestNewRejectsUnpackableTopology(t *testing.T) {
	for _, as := range []int{math.MaxInt32, 1 << 32, maxASN + 1, -1} {
		nw := buildLine(t, 3)
		nw.SetAS(1, as)
		if _, err := New(nw, fastParams(1)); err == nil || !strings.Contains(err.Error(), "32-bit") {
			t.Errorf("AS number %d: %v", as, err)
		}
	}

	nw := buildLine(t, 3)
	p := fastParams(1)
	p.PrefixesPerAS = math.MaxInt32 / 2 // 3 ASes x this overflows the dest index
	if _, err := New(nw, p); err == nil {
		t.Error("destination space past 32 bits accepted")
	}
	sim, err := New(nw, fastParams(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Rebind(nw, p); err == nil || !strings.Contains(err.Error(), "32-bit") {
		t.Errorf("Rebind with a destination space past 32 bits: %v", err)
	}
	if sim.ndests != 3 || sim.nprefix != 1 {
		t.Errorf("failed Rebind left ndests=%d nprefix=%d, want the previous 3 and 1", sim.ndests, sim.nprefix)
	}
	sim.Start()
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if path, ok := sim.LocPath(0, 2); !ok || !pathsEqual(path, Path{1, 2}) {
		t.Errorf("after the refused Rebind: path = %v, %v, want [1 2]", path, ok)
	}
}

func TestInitialConvergenceLine(t *testing.T) {
	nw := buildLine(t, 4)
	sim := mustSim(t, nw, fastParams(1))
	sim.Start()
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// Node 0's route to AS 3 must be the full path 1-2-3.
	p, ok := sim.LocPath(0, 3)
	if !ok {
		t.Fatal("node 0 has no route to AS 3")
	}
	if len(p) != 3 || p[0] != 1 || p[1] != 2 || p[2] != 3 {
		t.Errorf("path = %v, want [1 2 3]", p)
	}
	// Own prefix: empty path.
	if p, ok := sim.LocPath(2, 2); !ok || len(p) != 0 {
		t.Errorf("own prefix path = %v ok=%v, want empty", p, ok)
	}
	assertShortestPaths(t, sim)
}

func TestInitialConvergenceRingUsesShortestSide(t *testing.T) {
	nw := buildRing(t, 6)
	sim := mustSim(t, nw, fastParams(2))
	sim.Start()
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// Node 0 to AS 1: direct. Node 0 to AS 5: direct the other way.
	if p, _ := sim.LocPath(0, 1); len(p) != 1 {
		t.Errorf("0->1 path %v, want length 1", p)
	}
	if p, _ := sim.LocPath(0, 5); len(p) != 1 {
		t.Errorf("0->5 path %v, want length 1", p)
	}
	if p, _ := sim.LocPath(0, 3); len(p) != 3 {
		t.Errorf("0->3 path %v, want length 3", p)
	}
	assertShortestPaths(t, sim)
}

func TestFailureWithdrawsDeadPrefixEverywhere(t *testing.T) {
	nw := buildLine(t, 4)
	sim := mustSim(t, nw, fastParams(3))
	delay, err := sim.ConvergeAndFail([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	if delay <= 0 {
		t.Error("failure with reconvergence reported zero delay")
	}
	// AS 1's prefix must be gone everywhere; 0 is cut off from 2,3.
	for _, node := range []int{0, 2, 3} {
		if _, ok := sim.LocPath(node, 1); ok {
			t.Errorf("node %d still has a route to dead AS 1", node)
		}
	}
	if _, ok := sim.LocPath(0, 3); ok {
		t.Error("node 0 kept a route across the cut")
	}
	if _, ok := sim.LocPath(3, 0); ok {
		t.Error("node 3 kept a route across the cut")
	}
	if p, ok := sim.LocPath(2, 3); !ok || len(p) != 1 {
		t.Errorf("surviving side lost its own connectivity: %v ok=%v", p, ok)
	}
	assertShortestPaths(t, sim)
}

func TestFailureReroutesAroundRing(t *testing.T) {
	nw := buildRing(t, 6)
	sim := mustSim(t, nw, fastParams(4))
	if _, err := sim.ConvergeAndFail([]int{3}); err != nil {
		t.Fatal(err)
	}
	// Node 2's route to AS 4 must now go the long way: 1,0,5,4.
	p, ok := sim.LocPath(2, 4)
	if !ok {
		t.Fatal("node 2 lost AS 4 entirely")
	}
	if len(p) != 4 {
		t.Errorf("rerouted path %v, want length 4", p)
	}
	assertShortestPaths(t, sim)
}

func TestConvergenceDelayMeasuredFromFailure(t *testing.T) {
	nw := buildRing(t, 6)
	sim := mustSim(t, nw, fastParams(5))
	sim.Start()
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	phase1End := sim.Now()
	failAt := phase1End + SettleMargin
	sim.ScheduleFailure(failAt, []int{3})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	col := sim.Collector()
	if col.WindowStart() != failAt {
		t.Errorf("window start = %v, want %v", col.WindowStart(), failAt)
	}
	if col.ConvergenceDelay() <= 0 {
		t.Error("no post-failure delay measured")
	}
	if col.Messages() == 0 {
		t.Error("no post-failure messages counted")
	}
	if col.TotalMessages <= col.Messages() {
		t.Error("phase-1 messages leaked into the window count")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	t.Parallel()
	run := func() (time.Duration, int) {
		nw := skewed(t, 40, 99)
		sim := mustSim(t, nw, fastParams(7))
		fail := topology.NearestNodes(nw, topology.GridCenter(nw), 4, nil)
		delay, err := sim.ConvergeAndFail(fail)
		if err != nil {
			t.Fatal(err)
		}
		return delay, sim.Collector().Messages()
	}
	d1, m1 := run()
	d2, m2 := run()
	if d1 != d2 || m1 != m2 {
		t.Errorf("nondeterministic: (%v,%d) vs (%v,%d)", d1, m1, d2, m2)
	}
}

func TestShortestPathInvariantRandomTopology(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		nw := skewed(t, 40, seed)
		sim := mustSim(t, nw, fastParams(seed))
		fail := topology.NearestNodes(nw, topology.GridCenter(nw), 4, nil)
		if _, err := sim.ConvergeAndFail(fail); err != nil {
			t.Fatal(err)
		}
		assertShortestPaths(t, sim)
	}
}

func TestShortestPathInvariantBatched(t *testing.T) {
	nw := skewed(t, 40, 11)
	p := fastParams(11)
	p.Queue = QueueBatched
	sim := mustSim(t, nw, p)
	fail := topology.NearestNodes(nw, topology.GridCenter(nw), 6, nil)
	if _, err := sim.ConvergeAndFail(fail); err != nil {
		t.Fatal(err)
	}
	assertShortestPaths(t, sim)
	if sim.Collector().Discarded == 0 {
		t.Log("note: batching discarded nothing (small run, not an error)")
	}
}

func TestShortestPathInvariantIBGP(t *testing.T) {
	rng := des.NewRNG(13)
	spec := topology.DefaultRealistic(20)
	spec.MaxASSize = 5
	nw, err := topology.Realistic(spec, rng)
	if err != nil {
		t.Fatal(err)
	}
	sim := mustSim(t, nw, fastParams(13))
	fail := topology.NearestNodes(nw, topology.GridCenter(nw), nw.NumNodes()/10, nil)
	if _, err := sim.ConvergeAndFail(fail); err != nil {
		t.Fatal(err)
	}
	assertShortestPaths(t, sim)
}

func TestDetectDelayDefersSessionDown(t *testing.T) {
	nw := buildLine(t, 3)
	p := fastParams(17)
	p.DetectDelay = 2 * time.Second
	sim := mustSim(t, nw, p)
	sim.Start()
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	failAt := sim.Now() + SettleMargin
	sim.ScheduleFailure(failAt, []int{1})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// All reaction happens >= DetectDelay after the failure.
	if got := sim.Collector().ConvergenceDelay(); got < p.DetectDelay {
		t.Errorf("delay %v < detect delay %v", got, p.DetectDelay)
	}
	assertShortestPaths(t, sim)
}

func TestPerDestinationMRAIConverges(t *testing.T) {
	nw := skewed(t, 30, 19)
	p := fastParams(19)
	p.PerDestinationMRAI = true
	sim := mustSim(t, nw, p)
	fail := topology.NearestNodes(nw, topology.GridCenter(nw), 3, nil)
	if _, err := sim.ConvergeAndFail(fail); err != nil {
		t.Fatal(err)
	}
	assertShortestPaths(t, sim)
}

func TestDeshpandeSikdarVariantsConverge(t *testing.T) {
	nw := skewed(t, 30, 23)
	for _, variant := range []string{"cancel", "flapgate"} {
		variant := variant
		t.Run(variant, func(t *testing.T) {
			p := fastParams(23)
			if variant == "cancel" {
				p.CancelOnChange = true
			} else {
				p.FlapGate = 3
			}
			sim := mustSim(t, nw.Clone(), p)
			fail := topology.NearestNodes(nw, topology.GridCenter(nw), 3, nil)
			if _, err := sim.ConvergeAndFail(fail); err != nil {
				t.Fatal(err)
			}
			assertShortestPaths(t, sim)
		})
	}
}

func TestRateLimitedWithdrawalsConverge(t *testing.T) {
	nw := skewed(t, 30, 29)
	p := fastParams(29)
	p.RateLimitWithdrawals = true
	sim := mustSim(t, nw, p)
	fail := topology.NearestNodes(nw, topology.GridCenter(nw), 3, nil)
	if _, err := sim.ConvergeAndFail(fail); err != nil {
		t.Fatal(err)
	}
	assertShortestPaths(t, sim)
}

func TestDynamicMRAIRunsAndExposesLevels(t *testing.T) {
	nw := skewed(t, 40, 31)
	p := fastParams(31)
	p.MRAI = mrai.PaperDynamic()
	sim := mustSim(t, nw, p)
	fail := topology.NearestNodes(nw, topology.GridCenter(nw), 6, nil)
	if _, err := sim.ConvergeAndFail(fail); err != nil {
		t.Fatal(err)
	}
	hist := sim.PolicyLevelHistogram()
	total := 0
	for _, n := range hist {
		total += n
	}
	if total != 40-6 {
		t.Errorf("level histogram covers %d routers, want %d", total, 40-6)
	}
	assertShortestPaths(t, sim)
}

func TestOriginsOnePerAS(t *testing.T) {
	rng := des.NewRNG(37)
	spec := topology.DefaultRealistic(10)
	spec.MaxASSize = 4
	nw, err := topology.Realistic(spec, rng)
	if err != nil {
		t.Fatal(err)
	}
	sim := mustSim(t, nw, fastParams(37))
	dests := sim.Destinations()
	if len(dests) != 10 {
		t.Fatalf("%d destinations, want 10", len(dests))
	}
	for _, d := range dests {
		id, ok := sim.OriginOf(d)
		if !ok {
			t.Fatalf("no origin for AS %d", d)
		}
		if nw.ASOf(id) != d {
			t.Errorf("origin %d of AS %d is in AS %d", id, d, nw.ASOf(id))
		}
	}
}

// assertShortestPaths verifies the core end-to-end invariant: after
// convergence every surviving router's Loc-RIB path length equals the
// AS-level shortest-path distance on the surviving graph, destinations
// whose origin died are absent, and no Loc-RIB path contains the local AS.
func assertShortestPaths(t *testing.T, sim *Simulator) {
	t.Helper()
	nw := sim.Network()
	alive := make([]bool, nw.NumNodes())
	for i := range alive {
		alive[i] = sim.Alive(i)
	}
	hopsFrom := make(map[int]map[int]int) // srcAS -> dest AS -> hops
	for node := 0; node < nw.NumNodes(); node++ {
		if !alive[node] {
			continue
		}
		srcAS := nw.ASOf(node)
		hops, ok := hopsFrom[srcAS]
		if !ok {
			hops = nw.ASGraphHops(srcAS, alive)
			hopsFrom[srcAS] = hops
		}
		for _, dest := range sim.Destinations() {
			origin, _ := sim.OriginOf(dest)
			originAlive := sim.Alive(origin)
			want, reachable := hops[sim.ASOfDest(dest)]
			p, has := sim.LocPath(node, dest)
			switch {
			case !originAlive || !reachable:
				if has {
					t.Errorf("node %d: route %v to unreachable/dead dest AS %d", node, p, dest)
				}
			case !has:
				t.Errorf("node %d: missing route to reachable dest AS %d (want %d hops)", node, dest, want)
			case len(p) != want:
				t.Errorf("node %d -> AS %d: path %v (len %d), want %d hops", node, dest, p, len(p), want)
			default:
				if pathContains(p, nw.ASOf(node)) && len(p) > 0 {
					t.Errorf("node %d: own AS on path %v", node, p)
				}
			}
		}
	}
}

func TestOracleMRAISwitchesAtFailure(t *testing.T) {
	nw := skewed(t, 40, 41)
	p := fastParams(41)
	p.MRAI = mrai.Oracle(500 * time.Millisecond)
	p.OracleMRAI = func(frac float64) time.Duration {
		if frac < 0.15 {
			t.Errorf("oracle saw fraction %v, want 0.15 (6/40)", frac)
		}
		return 2250 * time.Millisecond
	}
	sim := mustSim(t, nw, p)
	fail := topology.NearestNodes(nw, topology.GridCenter(nw), 6, nil)
	if _, err := sim.ConvergeAndFail(fail); err != nil {
		t.Fatal(err)
	}
	// After the failure every surviving policy must report the oracle value.
	for _, r := range sim.routers {
		if !r.alive {
			continue
		}
		if got := r.flush.policy.MRAI(mrai.Snapshot{}); got != 2250*time.Millisecond {
			t.Fatalf("router %d policy = %v after oracle switch", r.id, got)
		}
	}
	assertShortestPaths(t, sim)
}

func TestSkipNoopUpdatesDiscardsAndConverges(t *testing.T) {
	nw := skewed(t, 40, 43)
	p := fastParams(43)
	p.Queue = QueueBatched
	p.SkipNoopUpdates = true
	sim := mustSim(t, nw, p)
	fail := topology.NearestNodes(nw, topology.GridCenter(nw), 6, nil)
	if _, err := sim.ConvergeAndFail(fail); err != nil {
		t.Fatal(err)
	}
	assertShortestPaths(t, sim)
}

func TestSkipNoopUpdatesDropsExactDuplicate(t *testing.T) {
	nw := buildLine(t, 3)
	p := fastParams(47)
	p.SkipNoopUpdates = true
	sim := mustSim(t, nw, p)
	r1 := sim.routers[1]
	// Seed a route, then deliver the identical announcement again: the
	// duplicate must be dropped without processing.
	ribIn(r1).set(9, 0, Path{0, 9})
	r1.enqueue(updateFrom(r1, 0, 9, Path{0, 9}))
	if r1.receive.busy() {
		t.Fatal("noop update entered service")
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if sim.col.TotalProcessed != 0 {
		t.Errorf("processed = %d, want 0", sim.col.TotalProcessed)
	}
	// A withdrawal for a route we never had is also a noop.
	r1.enqueue(updateFrom(r1, 0, 77, nil))
	if r1.receive.busy() {
		t.Error("noop withdrawal entered service")
	}
}

func TestLinkFailurePartitionsWithoutKillingRouters(t *testing.T) {
	nw := buildLine(t, 4)
	sim := mustSim(t, nw, fastParams(71))
	sim.Start()
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	cutAt := sim.Now() + SettleMargin
	sim.ScheduleLinkFailure(cutAt, [][2]int{{1, 2}})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// Everyone is alive but the line is split 0-1 | 2-3.
	for i := 0; i < 4; i++ {
		if !sim.Alive(i) {
			t.Fatalf("router %d died from a link failure", i)
		}
	}
	if _, ok := sim.LocPath(0, 3); ok {
		t.Error("route across the cut survived")
	}
	if _, ok := sim.LocPath(3, 0); ok {
		t.Error("reverse route across the cut survived")
	}
	if p, ok := sim.LocPath(0, 1); !ok || len(p) != 1 {
		t.Errorf("intra-partition route lost: %v ok=%v", p, ok)
	}
	if p, ok := sim.LocPath(3, 2); !ok || len(p) != 1 {
		t.Errorf("intra-partition route lost: %v ok=%v", p, ok)
	}
	if sim.Collector().ConvergenceDelay() <= 0 {
		t.Error("link failure produced no measured activity")
	}
}

func TestLinkFailureReroutesOnRing(t *testing.T) {
	nw := buildRing(t, 6)
	sim := mustSim(t, nw, fastParams(73))
	sim.Start()
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	sim.ScheduleLinkFailure(sim.Now()+SettleMargin, [][2]int{{0, 1}})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// 0 still reaches 1, the long way round (5 hops).
	p, ok := sim.LocPath(0, 1)
	if !ok {
		t.Fatal("route to AS 1 lost entirely")
	}
	if len(p) != 5 {
		t.Errorf("path %v, want the 5-hop detour", p)
	}
}

func TestLinkFailureIgnoresBogusPairs(t *testing.T) {
	nw := buildLine(t, 3)
	sim := mustSim(t, nw, fastParams(79))
	sim.Start()
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	sim.ScheduleLinkFailure(sim.Now()+time.Second, [][2]int{{0, 2}, {-1, 5}, {9, 9}})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// Nothing adjacent was cut; routes intact.
	if _, ok := sim.LocPath(0, 2); !ok {
		t.Error("unrelated route lost")
	}
}

func TestMultiplePrefixesPerAS(t *testing.T) {
	nw := buildLine(t, 3)
	p := fastParams(97)
	p.PrefixesPerAS = 3
	sim := mustSim(t, nw, p)
	if got := len(sim.Destinations()); got != 9 {
		t.Fatalf("destinations = %d, want 9", got)
	}
	sim.Start()
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// Every prefix of AS 2 is reachable from node 0 with the same path.
	for i := 0; i < 3; i++ {
		dest := 2*3 + i
		if sim.ASOfDest(dest) != 2 {
			t.Fatalf("ASOfDest(%d) = %d", dest, sim.ASOfDest(dest))
		}
		path, ok := sim.LocPath(0, dest)
		if !ok || len(path) != 2 {
			t.Errorf("node 0 -> prefix %d: %v ok=%v", dest, path, ok)
		}
	}
	assertShortestPaths(t, sim)
}

func TestMultiplePrefixesSurviveFailure(t *testing.T) {
	nw := skewed(t, 24, 101)
	p := fastParams(101)
	p.PrefixesPerAS = 2
	sim := mustSim(t, nw, p)
	fail := topology.NearestNodes(nw, topology.GridCenter(nw), 2, nil)
	if _, err := sim.ConvergeAndFail(fail); err != nil {
		t.Fatal(err)
	}
	assertShortestPaths(t, sim)
}

func TestMorePrefixesMeanMoreLoad(t *testing.T) {
	nw := skewed(t, 24, 103)
	run := func(k int) int {
		p := fastParams(103)
		p.PrefixesPerAS = k
		sim := mustSim(t, nw.Clone(), p)
		fail := topology.NearestNodes(nw, topology.GridCenter(nw), 2, nil)
		if _, err := sim.ConvergeAndFail(fail); err != nil {
			t.Fatal(err)
		}
		return sim.Collector().Messages()
	}
	m1, m4 := run(1), run(4)
	if m4 < 3*m1 {
		t.Errorf("4x prefixes produced %d msgs vs %d for 1x; expected ≈4x", m4, m1)
	}
}

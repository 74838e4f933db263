package bgp

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"bgpsim/internal/des"
	"bgpsim/internal/topology"
)

// churnDigest drives sim through a Poisson churn program on nw — node
// failures that recover, link flaps, one measurement window per
// perturbation, arrivals up to horizon after the converged state — and
// returns every window's counters with times relative to that state, the
// final routes, and the most paths the table held (with the live count
// at that moment) over samples taken at each perturbation. Arrivals are
// a few seconds apart against storms that last longer, so perturbations
// land on routers that are busy, with updates queued and on the links.
func churnDigest(t *testing.T, sim *Simulator, nw *topology.Network, seed int64, horizon time.Duration) (digest string, peak PathStats) {
	t.Helper()
	sim.params.ref |= refInvariants
	if err := sim.ConvergeInitial(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	sample := func() {
		if ps := sim.PathTableStats(); ps.Registered > peak.Registered {
			peak = ps
		}
	}
	base := sim.Now()
	capture := func() {
		col := sim.Collector()
		fmt.Fprintf(&b, "start=%v last=%v delay=%v ann=%d wd=%d pkts=%d proc=%d disc=%d changes=%d maxq=%d\n",
			col.WindowStart()-base, col.LastActivity()-base, col.ConvergenceDelay(),
			col.Announcements, col.Withdrawals, col.Packets, col.Processed, col.Discarded,
			col.RouteChanges(), col.MaxQueueLen)
	}
	start := base + SettleMargin
	window := func(at des.Time) {
		sim.ScheduleControl(at, func() {
			sample()
			if at != start { // before the first, no window is open
				capture()
			}
			sim.OpenMeasurementWindow(at)
		})
	}
	rng := des.NewRNG(seed)
	links := nw.Links()
	for at := start; at < start+horizon; at += rng.UniformDuration(0, 4*time.Second) {
		window(at)
		hold := rng.UniformDuration(time.Second, 8*time.Second)
		if rng.Intn(2) == 0 {
			nodes := []int{rng.Intn(nw.NumNodes()), rng.Intn(nw.NumNodes())}
			sim.ScheduleFailure(at, nodes)
			sim.ScheduleRecovery(at+hold, nodes)
		} else {
			l := links[rng.Intn(len(links))]
			flap := [][2]int{{l.A, l.B}}
			sim.ScheduleLinkFailure(at, flap)
			sim.ScheduleLinkRecovery(at+hold, flap)
		}
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	sample()
	assertQuiescent(t, sim)
	capture()
	fmt.Fprintf(&b, "now=%v\n", sim.Now()-base)
	for _, dest := range sim.Destinations() {
		for id := 0; id < nw.NumNodes(); id++ {
			if p, ok := sim.LocPath(id, dest); ok {
				fmt.Fprintf(&b, "n%d d%d %v\n", id, dest, p)
			}
		}
	}
	return b.String(), peak
}

// sweepWorld is the world of the refCompactAlways runs, which pay for a
// walk over every RIB cell at every CPU completion: 24 routers, the three
// nearest the centre failing.
func sweepWorld(t *testing.T) (*topology.Network, []int) {
	t.Helper()
	nw, err := topology.SkewedNetwork(topology.Skewed7030(24), des.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	return nw, topology.NearestNodes(nw, topology.GridCenter(nw), 3, nil)
}

// TestCompactionBehaviorNeutral pins that sweeping the path table
// changes nothing observable. With refCompactAlways every CPU completion
// starts with a sweep — thousands per run, each renaming every ref held
// in a RIB cell, an inbox, a batch being processed or a lane of updates
// in flight — and the run must produce byte-identical figures and final
// routes to one that never sweeps: over every parameter shape of
// resetVariants (the three queue disciplines, stale discarding on and
// off, damping), each as a single failure and as a churn program with
// node recoveries and link flaps. A root the sweep failed to visit
// would keep a ref to a node that has moved or gone, so removing any one
// visitor makes this fail.
func TestCompactionBehaviorNeutral(t *testing.T) {
	nw, fail := sweepWorld(t)

	for _, v := range resetVariants() {
		for _, churn := range []bool{false, true} {
			name := v.name
			if churn {
				name += "/churn"
			}
			t.Run(name, func(t *testing.T) {
				run := func(ref refPaths) (string, PathStats) {
					p := equivalenceParams(5, v.mutate)
					p.ref |= ref
					sim, err := New(nw, p)
					if err != nil {
						t.Fatal(err)
					}
					var digest string
					if churn {
						digest, _ = churnDigest(t, sim, nw, 7, 20*time.Second)
					} else {
						digest = digestRun(t, sim, nw, fail).summary
					}
					return digest, sim.PathTableStats()
				}
				want, plain := run(0)
				if plain.Compactions != 0 || plain.Reclaimed != 0 || plain.SweptCells != 0 {
					t.Fatalf("a table this small swept by itself: %+v", plain)
				}
				got, st := run(refCompactAlways)
				if got != want {
					t.Errorf("swept run diverged\nplain:\n%s\nswept:\n%s", clip(want), clip(got))
				}
				if st.Compactions < 100 || st.Reclaimed == 0 || st.SweptCells == 0 {
					t.Fatalf("refCompactAlways did not sweep at every safe point: %+v", st)
				}
				// Only what the last work unit itself registered and dropped
				// can be dead now.
				if dead := st.Registered - st.Live; dead > st.Registered/10 {
					t.Errorf("swept at the last safe point, yet %d of %d registered paths are dead", dead, st.Registered)
				}
			})
		}
	}
}

// TestCompactionShrinksTable checks a sweep's actual effect: after phase
// 1 the table holds the live paths and the ancestors their nodes name,
// far fewer than the exploration storm registered; every route still
// reads the same; and a second sweep finds nothing more to drop.
func TestCompactionShrinksTable(t *testing.T) {
	nw, _ := oracleTopology(t)

	p := equivalenceParams(5, nil)
	sim, err := New(nw, p)
	if err != nil {
		t.Fatal(err)
	}
	sim.Start()
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	before := sim.PathTableStats()
	if before.Live >= before.Registered || before.Compactions != 0 {
		t.Fatalf("no dead paths to reclaim: %+v", before)
	}
	routes := func() string {
		var b strings.Builder
		for _, dest := range sim.Destinations() {
			for id := 0; id < nw.NumNodes(); id++ {
				path, ok := sim.LocPath(id, dest)
				fmt.Fprintln(&b, id, dest, path, ok)
			}
		}
		return b.String()
	}
	want := routes()

	sim.sweep()
	after := sim.PathTableStats()
	if after.Compactions != 1 || after.Reclaimed != before.Registered-before.Live || after.SweptCells == 0 {
		t.Fatalf("sweep did not account for itself: before %+v, after %+v", before, after)
	}
	if after.Live != before.Live || after.Registered != after.Live {
		t.Fatalf("swept table should hold the live set and its ancestors only: before %+v, after %+v",
			before, after)
	}
	// The converged state must survive the sweep intact.
	if got := routes(); got != want {
		t.Fatalf("routes changed across compaction\nbefore:\n%s\nafter:\n%s", want, got)
	}
	// Everything registered is there because a RIB cell names it or a
	// path that is named descends from it; the free nodes are not.
	held := make(map[routeRef]bool)
	sim.forEachRefColumn(func(refs []routeRef) {
		for _, ref := range refs {
			for ; ref != 0 && !held[ref]; ref = sim.tab.node(ref).parent {
				held[ref] = true
			}
		}
	})
	for ref := emptyRef + 1; ref <= routeRef(sim.tab.n); ref++ {
		if nd := sim.tab.node(ref); nd.parent != 0 && !held[ref] {
			t.Fatalf("ref %d (%v) survived the sweep with no live descendant", ref, sim.tab.path(ref))
		}
	}

	sim.sweep()
	again := sim.PathTableStats()
	if again.Compactions != 2 || again.Reclaimed != after.Reclaimed || again.Registered != after.Registered || again.Live != after.Live {
		t.Fatalf("second sweep was not a no-op: first %+v, second %+v", after, again)
	}
	if got := routes(); got != want {
		t.Fatalf("routes changed across the second sweep\nbefore:\n%s\nafter:\n%s", want, got)
	}
}

// TestWarmStartMatchesCompactedCold closes the triangle: a cold-start
// reference run that sweeps all the way through, initial convergence
// included, still matches the installed start bit for bit — across the
// scheme variants, with Gao–Rexford policy and with three prefixes per
// AS.
func TestWarmStartMatchesCompactedCold(t *testing.T) {
	nw, fail := sweepWorld(t)
	pol, err := topology.InferRelationships(nw, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range resetVariants() {
		for _, shape := range []struct {
			name     string
			pol      *topology.Relationships
			prefixes int
		}{{"flat", nil, 1}, {"policy", pol, 1}, {"k3", nil, 3}, {"policy-k3", pol, 3}} {
			p := equivalenceParams(3, v.mutate)
			p.Policy, p.PrefixesPerAS = shape.pol, shape.prefixes
			checkColdStart(t, nw, fail, p, refCompactAlways)
		}
	}
	p := equivalenceParams(3, nil)
	p.ref |= refCompactAlways | refColdStart
	cold, err := New(nw, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.ConvergeInitial(); err != nil {
		t.Fatal(err)
	}
	if st := cold.PathTableStats(); st.Compactions == 0 {
		t.Fatalf("cold start did not sweep: %+v", st)
	}
}

// TestPathTableBoundedByLiveNotHistory pins what the collector is for. A
// churn trial keeps exploring for as long as it runs, so the paths it
// has ever registered grow with its horizon; the table does not. The
// same Poisson program run four times as long ends on a table at most
// one chunk larger, and at every sample the table holds at most 1.5
// times the paths found live, plus the slack of the chunk it is filling. A
// pooled simulator then runs the trial again in the table, the marks and
// the lane chunks the first run left, and a sweep itself allocates
// nothing.
func TestPathTableBoundedByLiveNotHistory(t *testing.T) {
	nw, err := topology.SkewedNetwork(topology.Skewed7030(120), des.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	p := equivalenceParams(9, func(p *Params) { p.Queue = QueueBatched })
	const h = 100 * time.Second

	type outcome struct {
		digest     string
		peak, end  PathStats
		chunks     int
		capacity   int // nodes the chunks hold
		slack      int // nodes in the chunk the table is filling
		registered int // paths ever registered: those held now and those reclaimed
	}
	run := func(sim *Simulator, horizon time.Duration) outcome {
		digest, peak := churnDigest(t, sim, nw, 21, horizon)
		end := sim.PathTableStats()
		capacity := 0
		for _, c := range sim.tab.chunks {
			capacity += len(c)
		}
		return outcome{digest, peak, end, len(sim.tab.chunks), capacity,
			len(sim.tab.chunks[len(sim.tab.chunks)-1]), end.Registered + end.Reclaimed}
	}
	sim, err := New(nw, p)
	if err != nil {
		t.Fatal(err)
	}
	short := run(sim, h)
	long4, err := New(nw, p)
	if err != nil {
		t.Fatal(err)
	}
	long := run(long4, 4*h)
	t.Logf("horizon h: %+v in %d chunks, %d ever registered; 4h: %+v in %d chunks, %d ever registered",
		short.end, short.chunks, short.registered, long.end, long.chunks, long.registered)

	if short.end.Compactions < 2 {
		t.Fatalf("the trial does not grow the table past its threshold: %+v", short.end)
	}
	if long.registered < 2*short.registered {
		t.Fatalf("four times the horizon registered %d paths against %d: the program does not keep exploring", long.registered, short.registered)
	}
	if long.capacity > short.capacity+long.slack {
		t.Errorf("table grew with the horizon: %d nodes in %d chunks at h, %d in %d at 4h",
			short.capacity, short.chunks, long.capacity, long.chunks)
	}
	for _, o := range []outcome{short, long} {
		if 2*o.peak.Registered > 3*o.peak.Live+2*o.slack {
			t.Errorf("table held %d paths with %d live: want at most 1.5 x live + %d", o.peak.Registered, o.peak.Live, o.slack)
		}
	}

	// The same trial again on the simulator that has run it once.
	laneChunks := func() (n int) {
		for _, l := range sim.lanes {
			n += len(l.chunks) + len(l.spare)
		}
		return n
	}
	marks, lanes := &sim.tab.marks[0], laneChunks()
	if err := sim.Rebind(nw, p); err != nil {
		t.Fatal(err)
	}
	again := run(sim, h)
	if again.digest != short.digest || again.end != short.end {
		t.Errorf("rebound trial diverged: %+v, first %+v", again.end, short.end)
	}
	if again.chunks != short.chunks || &sim.tab.marks[0] != marks || laneChunks() != lanes {
		t.Errorf("second trial grew what the first left: %d -> %d table chunks, %d -> %d lane chunks, marks moved: %v",
			short.chunks, again.chunks, lanes, laneChunks(), &sim.tab.marks[0] != marks)
	}
	if avg := testing.AllocsPerRun(5, sim.sweep); avg != 0 {
		t.Errorf("a sweep allocates %.1f objects, want 0", avg)
	}
}

// TestSweepAfterRebindMidStorm pins that Rebind leaves no root behind. A
// run abandoned in mid-storm has updates queued, being processed and on
// the links, and the lanes Rebind clears still hold updates whose refs
// name paths of the table it rewinds. The
// next trial on that simulator, sweeping at every safe point, must find
// nothing in flight at its start and match a fresh simulator's run.
func TestSweepAfterRebindMidStorm(t *testing.T) {
	nw, fail := sweepWorld(t)
	p := equivalenceParams(5, nil)
	p.ref |= refCompactAlways
	fresh, err := New(nw, p)
	if err != nil {
		t.Fatal(err)
	}
	want := digestRun(t, fresh, nw, fail).summary

	sim, err := New(nw, p)
	if err != nil {
		t.Fatal(err)
	}
	sim.Start()
	if err := sim.RunUntil(originationSpread / 2); err != nil {
		t.Fatal(err)
	}
	if n := sim.forEachInFlight(func(*routeRef) {}); n == 0 {
		t.Fatalf("nothing in flight at %v: the run is not in mid-storm", sim.Now())
	}
	if err := sim.Rebind(nw, p); err != nil {
		t.Fatal(err)
	}
	if n := sim.forEachInFlight(func(*routeRef) {}); n != 0 {
		t.Fatalf("%d updates in flight on a rebound simulator", n)
	}
	if got := digestRun(t, sim, nw, fail).summary; got != want {
		t.Errorf("run after a mid-storm Rebind diverged\nfresh:\n%s\nrebound:\n%s", clip(want), clip(got))
	}
}

package bgp

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"bgpsim/internal/des"
	"bgpsim/internal/snapshot"
	"bgpsim/internal/topology"
)

// The differential oracle: the snapshot backend and the event simulator
// must agree, route for route and advertisement for advertisement, on
// the converged (phase-1 quiescent) state — across every scheme variant
// the figures exercise, multi-prefix tables, and both policy
// configurations. Timing schemes change when routes move,
// never where they settle, so one fixpoint serves them all.

func oracleTopology(t *testing.T) (*topology.Network, *topology.Relationships) {
	t.Helper()
	rng := des.NewRNG(11)
	nw, err := topology.SkewedNetwork(topology.Skewed7030(40), rng)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := topology.InferRelationships(nw, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	return nw, pol
}

// compareConverged runs the cold start (initial convergence as events)
// to quiescence and checks the simulator's full converged state against
// the snapshot fixpoint.
func compareConverged(t *testing.T, nw *topology.Network, p Params, res *snapshot.Result) {
	t.Helper()
	p.ref |= refColdStart
	sim, err := New(nw, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.ConvergeInitial(); err != nil {
		t.Fatal(err)
	}
	compareRoutes(t, sim, res)
	// Adjacency-level agreement: an Adj-RIB-In entry exactly where the
	// snapshot says the peer advertises.
	for _, r := range sim.routers {
		for slot, peer := range r.peers {
			for _, dest := range sim.Destinations() {
				as := sim.ASOfDest(dest)
				have := r.receive.adjIn.getSlotRef(slot, dest) != 0
				want := res.Advertises(as, peer.Node, r.id)
				if have != want {
					t.Fatalf("n%d d%d from peer n%d: DES adj-rib-in=%v, snapshot Advertises=%v",
						r.id, dest, peer.Node, have, want)
				}
			}
		}
	}
}

// compareRoutes requires every live router's Loc-RIB path for every
// destination to equal the snapshot's (no route exactly where the
// snapshot has none).
func compareRoutes(t *testing.T, sim *Simulator, res *snapshot.Result) {
	t.Helper()
	for _, dest := range sim.Destinations() {
		as := sim.ASOfDest(dest)
		for id := 0; id < sim.net.NumNodes(); id++ {
			if !sim.Alive(id) {
				continue
			}
			simPath, simOK := sim.LocPath(id, dest)
			snapPath, snapOK := res.Path(as, id)
			if simOK != snapOK {
				t.Fatalf("n%d d%d: DES has route=%v, snapshot has route=%v", id, dest, simOK, snapOK)
			}
			if simOK && !slices.Equal(simPath, snapPath) {
				t.Fatalf("n%d d%d: DES path %v != snapshot path %v", id, dest, simPath, snapPath)
			}
		}
	}
}

// assertPostFailureFixpoint is the post-failure oracle: once a storm
// has quiesced, every live router must hold exactly the route the
// snapshot backend computes on the surviving topology — a clone of the
// network with every failed node cut off — under the trial's policy.
// The install shares that backend, so this is what checks that the
// storm, not the start, lands on the right state. Damping is exempt:
// suppression departs from the fixpoint by design.
func assertPostFailureFixpoint(t *testing.T, sim *Simulator, fail []int) {
	t.Helper()
	if sim.params.Damping != nil {
		return
	}
	surviving := sim.net.Clone()
	for _, id := range fail {
		for _, nb := range sim.net.Neighbors(id) {
			surviving.RemoveLink(id, nb.ID)
		}
	}
	res, err := snapshot.Compute(surviving, snapshot.Config{Policy: sim.params.Policy})
	if err != nil {
		t.Fatal(err)
	}
	compareRoutes(t, sim, res)
}

func TestSnapshotOracle(t *testing.T) {
	nw, polInfer := oracleTopology(t)
	for _, pc := range []struct {
		name string
		pol  *topology.Relationships
	}{{"flat", nil}, {"policy", polInfer}} {
		res, err := snapshot.Compute(nw, snapshot.Config{Policy: pc.pol})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range resetVariants() {
			for _, nprefix := range []int{1, 3} {
				// "shards1" is the one event loop; the name level is kept
				// from when the oracle also ran a four-shard engine.
				t.Run(fmt.Sprintf("%s/%s/k%d/shards1", pc.name, v.name, nprefix), func(t *testing.T) {
					p := equivalenceParams(7, v.mutate)
					p.Policy = pc.pol
					p.PrefixesPerAS = nprefix
					compareConverged(t, nw, p, res)
				})
			}
		}
	}
}

// warmDigest is digestRun without the absolute clock: an installed start
// reaches quiescence at a different absolute time than a cold-started
// one (no initial convergence is simulated), but every window-scoped
// figure — delay, message counts, route changes — and every final route
// must agree.
func warmDigest(t *testing.T, sim *Simulator, nw *topology.Network, fail []int) string {
	t.Helper()
	sim.params.ref |= refInvariants
	delay, err := sim.ConvergeAndFail(fail)
	if err != nil {
		t.Fatal(err)
	}
	col := sim.Collector()
	s := fmt.Sprintf("delay=%v msgs=%d ann=%d wd=%d proc=%d disc=%d rc=%d\n",
		delay, col.Messages(), col.Announcements, col.Withdrawals,
		col.Processed, col.Discarded, col.RouteChanges())
	for _, dest := range sim.Destinations() {
		for id := 0; id < nw.NumNodes(); id++ {
			if p, ok := sim.LocPath(id, dest); ok {
				s += fmt.Sprintf("n%d d%d %v\n", id, dest, p)
			}
		}
	}
	return s
}

// checkColdStart runs p from the installed start and from the
// refColdStart reference, each on a fresh simulator, and requires equal
// warmDigests. extra is or-ed into both runs' reference bits.
func checkColdStart(t *testing.T, nw *topology.Network, fail []int, p Params, extra refPaths) {
	t.Helper()
	ref := p.ref | extra
	p.ref = ref | refColdStart
	cold, err := New(nw, p)
	if err != nil {
		t.Fatal(err)
	}
	want := warmDigest(t, cold, nw, fail)
	if cold.Collector().TotalMessages == cold.Collector().Messages() {
		t.Fatal("the cold reference sent nothing before the failure")
	}
	p.ref = ref
	warm, err := New(nw, p)
	if err != nil {
		t.Fatal(err)
	}
	got := warmDigest(t, warm, nw, fail)
	if got != want {
		t.Errorf("installed start diverged from the cold start\ncold:\n%s\ninstalled:\n%s", want, got)
	}
	// The install's exchange (one update per installed route) is a lower
	// bound on what simulating it sends and processes.
	w, c := warm.Collector(), cold.Collector()
	if w.WindowStart() != SettleMargin {
		t.Errorf("installed start failed at %v, want SettleMargin %v", w.WindowStart(), SettleMargin)
	}
	installed := w.TotalProcessed - w.Processed
	if installed <= 0 || w.TotalMessages-w.Messages() != installed ||
		c.TotalMessages-c.Messages() < installed || c.TotalProcessed-c.Processed < installed {
		t.Errorf("installed start counts %d updates, %d messages before the window; the cold start %d and %d",
			installed, w.TotalMessages-w.Messages(), c.TotalProcessed-c.Processed, c.TotalMessages-c.Messages())
	}
}

// realisticWorld is a Fig 13-style world: multi-router ASes with full
// IBGP meshes, where the EBGP-over-IBGP tie-break and the no-relay rule
// shape the fixpoint.
func realisticWorld(t *testing.T) (*topology.Network, []int) {
	t.Helper()
	nw, err := topology.Realistic(topology.RealisticSpec{
		NumAS: 16, AvgDegree: 2.5, MaxDegree: 5, MinASSize: 1, MaxASSize: 5, SizeAlpha: 1.2,
	}, des.NewRNG(12))
	if err != nil {
		t.Fatal(err)
	}
	return nw, topology.NearestNodes(nw, topology.GridCenter(nw), 5, nil)
}

// TestWarmStartMatchesCold pins the installed start against the
// refColdStart reference: for every scheme variant, on a flat world
// without and with Gao–Rexford policy, with one and three prefixes per
// AS, and on a realistic multi-router world, the post-failure figures
// and final routing state are byte-identical. What a cold start leaves
// behind that the install does not — damping history, per-destination
// MRAI gates, the dynamic-MRAI level, flap counters — is reset at window
// open either way (normalizeWindow), which the damping, per-dest-mrai
// and dynamic-mrai variants pin.
func TestWarmStartMatchesCold(t *testing.T) {
	nw, polInfer := oracleTopology(t)
	fail := topology.NearestNodes(nw, topology.GridCenter(nw), 4, nil)
	rnw, rfail := realisticWorld(t)

	for _, v := range resetVariants() {
		t.Run(v.name, func(t *testing.T) {
			checkColdStart(t, nw, fail, equivalenceParams(3, v.mutate), 0)
		})
	}
	t.Run("policy", func(t *testing.T) {
		for _, v := range resetVariants() {
			t.Run(v.name, func(t *testing.T) {
				p := equivalenceParams(3, v.mutate)
				p.Policy = polInfer
				checkColdStart(t, nw, fail, p, 0)
			})
		}
	})
	t.Run("multiprefix", func(t *testing.T) {
		for _, v := range resetVariants() {
			t.Run(v.name, func(t *testing.T) {
				p := equivalenceParams(3, v.mutate)
				p.PrefixesPerAS = 3
				checkColdStart(t, nw, fail, p, 0)
				p.Policy = polInfer
				checkColdStart(t, nw, fail, p, 0)
			})
		}
	})
	t.Run("realistic", func(t *testing.T) {
		for _, v := range resetVariants() {
			t.Run(v.name, func(t *testing.T) {
				checkColdStart(t, rnw, rfail, equivalenceParams(3, v.mutate), 0)
			})
		}
	})
}

// TestChurnMatchesColdStart extends the pin to churn programs, whose
// windows reopen on every perturbation: node failures that recover (a
// revived router re-originates and relearns full tables) and link flaps,
// from the installed start and from the refColdStart reference, must
// give the same windows relative to the converged state and the same
// final routes, for every scheme variant.
func TestChurnMatchesColdStart(t *testing.T) {
	nw, _ := sweepWorld(t)
	for _, v := range resetVariants() {
		t.Run(v.name, func(t *testing.T) {
			p := equivalenceParams(5, v.mutate)
			warm, err := New(nw, p)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := churnDigest(t, warm, nw, 7, 20*time.Second)
			p.ref |= refColdStart
			cold, err := New(nw, p)
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := churnDigest(t, cold, nw, 7, 20*time.Second); got != want {
				t.Errorf("churn program diverged from the cold start\ncold:\n%s\ninstalled:\n%s", clip(want), clip(got))
			}
		})
	}
}

// TestConvergeInitialCountsOneUpdatePerInstalledRoute pins what an
// installed start adds to the collector (Collector.NoteInstalled): one
// update sent and one processed per Adj-RIB-In route it installs, in the
// whole-run totals only, since no window is open yet. The worlds are one
// prefix per AS, several, and Gao–Rexford, whose export rules leave some
// sessions without a route for a destination.
func TestConvergeInitialCountsOneUpdatePerInstalledRoute(t *testing.T) {
	nw, pol := oracleTopology(t)
	for _, tc := range []struct {
		name   string
		mutate func(*Params)
	}{
		{"single-prefix", nil},
		{"multi-prefix", func(p *Params) { p.PrefixesPerAS = 3 }},
		{"gao-rexford", func(p *Params) { p.Policy = pol }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim, err := New(nw, equivalenceParams(1, tc.mutate))
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.ConvergeInitial(); err != nil {
				t.Fatal(err)
			}
			routes := 0
			for _, r := range sim.routers {
				for _, col := range r.receive.adjIn.slots {
					for _, ref := range col.refs {
						if ref != 0 {
							routes++
						}
					}
				}
			}
			c := sim.Collector()
			if routes == 0 || c.TotalMessages != routes || c.TotalProcessed != routes {
				t.Errorf("%d Adj-RIB-In routes installed, collector counts %d messages and %d processed", routes, c.TotalMessages, c.TotalProcessed)
			}
			windowed := []int{c.Announcements, c.Withdrawals, c.Packets, c.Processed, c.Discarded, c.MaxQueueLen, c.RouteChanges()}
			if slices.ContainsFunc(windowed, func(n int) bool { return n != 0 }) {
				t.Errorf("window counters (announcements, withdrawals, packets, processed, discarded, max queue, route changes) = %v, want all 0", windowed)
			}
		})
	}
}

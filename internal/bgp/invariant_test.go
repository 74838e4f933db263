package bgp

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"bgpsim/internal/des"
	"bgpsim/internal/mrai"
	"bgpsim/internal/topology"
)

// TestNoUpdateCarriesItsReceiversAS runs a 10% failure and its recovery
// on a 120-AS Internet-like world and on a realistic world of
// multi-router ASes with IBGP meshes, each without and with Gao–Rexford
// policy, once under refInvariants — send panics on an update that
// carries its receiver's AS — and once without, and requires the same
// output. Nothing at the receiver checks for such an update, so this is
// the test that the sender never makes one: an EBGP export through the
// peer's AS is suppressed, an IBGP relay passes on a Loc-RIB path, and
// no Loc-RIB path holds its own AS (DESIGN.md, BGP invariants).
func TestNoUpdateCarriesItsReceiversAS(t *testing.T) {
	inet, err := topology.Spec{Kind: topology.KindInternetLike, N: 120}.Build(des.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	realistic, err := topology.Realistic(topology.RealisticSpec{
		NumAS: 30, AvgDegree: 3, MaxDegree: 8, MinASSize: 1, MaxASSize: 6, SizeAlpha: 1.2,
	}, des.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	if realistic.NumNodes() == realistic.NumASes() {
		t.Fatalf("realistic world has %d routers in %d ASes; want multi-router ASes", realistic.NumNodes(), realistic.NumASes())
	}
	for _, w := range []struct {
		name string
		net  *topology.Network
	}{{"internet-like", inet}, {"realistic", realistic}} {
		pol, err := topology.HierarchicalRelationships(w.net)
		if err != nil {
			t.Fatal(err)
		}
		fail := topology.NearestNodes(w.net, topology.GridCenter(w.net), w.net.NumNodes()/10, nil)
		for _, policy := range []*topology.Relationships{nil, pol} {
			run := func(check refPaths) string {
				p := equivalenceParams(3, func(p *Params) { p.Policy = policy })
				p.ref = check
				sim, err := New(w.net, p)
				if err != nil {
					t.Fatal(err)
				}
				delay, err := sim.ConvergeAndFail(fail)
				if err != nil {
					t.Fatal(err)
				}
				sim.ScheduleRecovery(sim.Now()+SettleMargin, fail)
				if err := sim.Run(); err != nil {
					t.Fatal(err)
				}
				col := sim.Collector()
				var s strings.Builder
				fmt.Fprintf(&s, "delay=%v total=%d/%d rc=%d now=%v\n",
					delay, col.TotalMessages, col.TotalProcessed, col.RouteChanges(), sim.Now())
				for _, dest := range sim.Destinations() {
					for id := 0; id < w.net.NumNodes(); id++ {
						if path, ok := sim.LocPath(id, dest); ok {
							fmt.Fprintf(&s, "n%d d%d %v\n", id, dest, path)
						}
					}
				}
				return s.String()
			}
			name := w.name
			if policy != nil {
				name += "+policy"
			}
			if got, want := run(refInvariants), run(0); got != want {
				t.Errorf("%s: the invariant check changed the output\nwithout:\n%s\nwith:\n%s", name, clip(want), clip(got))
			}
		}
	}
}

// assertConserved checks that a batch failure's window loses no message
// unaccounted: the installed start is quiescent when the window opens,
// so every update sent in it (Announcements + Withdrawals) was processed,
// discarded as stale by a batched inbox, or dropped on arrival because
// an endpoint of its link had died.
func assertConserved(t *testing.T, sim *Simulator) {
	t.Helper()
	col := sim.Collector()
	dropped := sim.lanes[0].dropped + sim.lanes[1].dropped
	if sent := col.Announcements + col.Withdrawals; sent != col.Processed+col.Discarded+dropped {
		t.Errorf("window sent %d updates (%d announcements, %d withdrawals) but accounts for %d: %d processed, %d discarded, %d dropped in flight",
			sent, col.Announcements, col.Withdrawals, col.Processed+col.Discarded+dropped, col.Processed, col.Discarded, dropped)
	}
}

// TestMessageConservation runs 10% batch failures on a Skewed 70-30
// world, an Internet-like one and a realistic one with IBGP meshes,
// under constant MRAIs of 0.5 and 2.25 s, batching, the dynamic ladder
// and both, three seeds each, and requires every window to conserve its
// messages (assertConserved). A failure kills routers with updates
// addressed to them on the links, so the in-flight drops are never zero
// across the set.
func TestMessageConservation(t *testing.T) {
	skewed, err := topology.SkewedNetwork(topology.Skewed7030(60), des.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	inet, err := topology.Spec{Kind: topology.KindInternetLike, N: 120}.Build(des.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	realistic, err := topology.Realistic(topology.DefaultRealistic(40), des.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if realistic.NumNodes() == realistic.NumASes() {
		t.Fatalf("realistic world has %d routers in %d ASes; want IBGP sessions", realistic.NumNodes(), realistic.NumASes())
	}
	schemes := []struct {
		name   string
		mutate func(*Params)
	}{
		{"mrai=0.5", nil},
		{"mrai=2.25", func(p *Params) { p.MRAI = mrai.Constant(2250 * time.Millisecond) }},
		{"batch", func(p *Params) { p.Queue = QueueBatched }},
		{"dynamic", func(p *Params) { p.MRAI = mrai.PaperDynamic() }},
		{"batch+dynamic", func(p *Params) {
			p.Queue = QueueBatched
			p.MRAI = mrai.PaperDynamic()
		}},
	}
	dropped := 0
	for _, w := range []struct {
		name string
		net  *topology.Network
	}{{"skewed", skewed}, {"internet-like", inet}, {"realistic", realistic}} {
		fail := topology.NearestNodes(w.net, topology.GridCenter(w.net), w.net.NumNodes()/10, nil)
		for _, sc := range schemes {
			for seed := int64(1); seed <= 3; seed++ {
				sim, err := New(w.net, equivalenceParams(seed, sc.mutate))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sim.ConvergeAndFail(fail); err != nil {
					t.Fatal(err)
				}
				t.Run(fmt.Sprintf("%s/%s/seed%d", w.name, sc.name, seed), func(t *testing.T) { assertConserved(t, sim) })
				dropped += sim.lanes[0].dropped + sim.lanes[1].dropped
			}
		}
	}
	if dropped == 0 {
		t.Error("no update was dropped in flight on any trial: the set does not exercise the drop count")
	}
}

package bgp

import (
	"fmt"
	"strings"
	"testing"

	"bgpsim/internal/des"
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

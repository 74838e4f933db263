package bgp

import (
	"testing"

	"bgpsim/internal/des"
	"bgpsim/internal/topology"
)

// policyNetwork builds the canonical Gao–Rexford example:
//
//	    2 (top provider)
//	   / \
//	  1   3        1-3 also peer with each other
//	 /     \
//	0       4
//
// 0 is 1's customer, 1 and 3 are 2's customers, 4 is 3's customer.
func policyNetwork(t *testing.T) (*topology.Network, *topology.Relationships) {
	t.Helper()
	nw := topology.NewNetwork(5)
	for _, l := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {1, 3}} {
		if err := nw.AddLink(l[0], l[1], false); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		nw.SetPos(i, topology.Point{X: float64(i) * 100, Y: 500})
	}
	rs := topology.NewRelationships()
	rs.Set(1, 0, topology.RelCustomer)
	rs.Set(2, 1, topology.RelCustomer)
	rs.Set(2, 3, topology.RelCustomer)
	rs.Set(3, 4, topology.RelCustomer)
	rs.Set(1, 3, topology.RelPeer)
	return nw, rs
}

func policySim(t *testing.T, seed int64) (*Simulator, *topology.Relationships) {
	t.Helper()
	nw, rs := policyNetwork(t)
	p := fastParams(seed)
	p.Policy = rs
	sim := mustSim(t, nw, p)
	return sim, rs
}

func TestPolicyPrefersCustomerRoutes(t *testing.T) {
	sim, _ := policySim(t, 81)
	sim.Start()
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// Node 1 can reach AS 4 via peer 3 (path len 2) or via provider 2
	// (path len 3). Customer > peer > provider: the peer route wins over
	// the provider one.
	p, ok := sim.LocPath(1, 4)
	if !ok {
		t.Fatal("node 1 has no route to AS 4")
	}
	if len(p) != 2 || p[0] != 3 {
		t.Errorf("node 1 -> AS 4 path %v, want via peer 3", p)
	}
	// Node 2 reaches AS 0 via its customer 1.
	if p, ok := sim.LocPath(2, 0); !ok || p[0] != 1 {
		t.Errorf("node 2 -> AS 0 path %v ok=%v, want via customer 1", p, ok)
	}
}

func TestPolicyExportRuleBlocksValleyPaths(t *testing.T) {
	sim, _ := policySim(t, 83)
	sim.Start()
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// 1 learns AS 2's own prefix from its provider 2 and must NOT relay
	// it to peer 3 or leak provider routes upward; 3 still reaches AS 2
	// directly, but node 1's Adj-RIB-In for dest 2 must have no entry
	// from peer 3 (3 would have to leak a provider route to a peer).
	r1 := sim.routers[1]
	if _, ok := ribIn(r1).get(2, 3); ok {
		t.Error("peer 3 leaked a provider-learned route to node 1")
	}
	// Likewise node 0 (customer) DOES get everything from its provider 1.
	if _, ok := sim.LocPath(0, 4); !ok {
		t.Error("customer 0 did not receive the full table")
	}
}

func TestPolicyPathsAreValleyFree(t *testing.T) {
	sim, rs := policySim(t, 85)
	sim.Start()
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	assertValleyFree(t, sim, rs)
}

func TestPolicyValleyFreeAfterFailure(t *testing.T) {
	sim, rs := policySim(t, 87)
	if _, err := sim.ConvergeAndFail([]int{2}); err != nil {
		t.Fatal(err)
	}
	assertValleyFree(t, sim, rs)
	// With the top provider dead, 0 reaches 4 via the 1-3 peering.
	p, ok := sim.LocPath(0, 4)
	if !ok {
		t.Fatal("node 0 lost AS 4 after top-provider failure")
	}
	if len(p) != 3 || p[0] != 1 || p[1] != 3 {
		t.Errorf("node 0 -> AS 4 = %v, want [1 3 4]", p)
	}
}

func TestPolicyOnRandomTopologyConvergesValleyFree(t *testing.T) {
	rng := des.NewRNG(91)
	nw, err := topology.SkewedNetwork(topology.Skewed7030(40), rng)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := topology.InferRelationships(nw, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	p := fastParams(91)
	p.Policy = rs
	sim := mustSim(t, nw, p)
	fail := topology.NearestNodes(nw, topology.GridCenter(nw), 4, nil)
	if _, err := sim.ConvergeAndFail(fail); err != nil {
		t.Fatal(err)
	}
	assertValleyFree(t, sim, rs)
}

// assertValleyFree checks every Loc-RIB path against the Gao–Rexford
// export rules. Note: policies can legitimately make some destinations
// unreachable (no valley-free path exists), so unlike the shortest-path
// invariant this only validates the routes that do exist.
func assertValleyFree(t *testing.T, sim *Simulator, rs *topology.Relationships) {
	t.Helper()
	nw := sim.Network()
	nodeOfAS := func(as int) (int, bool) {
		nodes := nw.NodesInAS(as)
		if len(nodes) != 1 {
			return 0, false
		}
		return nodes[0], true
	}
	routes := 0
	for node := 0; node < nw.NumNodes(); node++ {
		if !sim.Alive(node) {
			continue
		}
		for _, dest := range sim.Destinations() {
			p, ok := sim.LocPath(node, dest)
			if !ok || len(p) == 0 {
				continue
			}
			routes++
			if !topology.ValleyFree(rs, node, p, nodeOfAS) {
				t.Errorf("node %d -> AS %d: path %v violates valley-freeness", node, dest, p)
			}
		}
	}
	if routes == 0 {
		t.Error("no routes to validate")
	}
}

func TestHierarchicalPolicyKeepsFullReachability(t *testing.T) {
	rng := des.NewRNG(95)
	nw, err := topology.SkewedNetwork(topology.Skewed7030(60), rng)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := topology.HierarchicalRelationships(nw)
	if err != nil {
		t.Fatal(err)
	}
	p := fastParams(95)
	p.Policy = rs
	sim := mustSim(t, nw, p)
	sim.Start()
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// Every node must reach every prefix: the BFS hierarchy guarantees a
	// valley-free up-then-down path for all pairs.
	for n := 0; n < nw.NumNodes(); n++ {
		for _, d := range sim.Destinations() {
			if _, ok := sim.LocPath(n, d); !ok {
				t.Fatalf("node %d cannot reach prefix %d under hierarchical policy", n, d)
			}
		}
	}
	assertValleyFree(t, sim, rs)
}

package topology

import (
	"testing"

	"bgpsim/internal/des"
)

func TestRelationshipsSetAndInverse(t *testing.T) {
	rs := NewRelationships()
	rs.Set(1, 2, RelCustomer)
	if rs.Of(1, 2) != RelCustomer {
		t.Error("forward relationship wrong")
	}
	if rs.Of(2, 1) != RelProvider {
		t.Error("inverse of customer is not provider")
	}
	rs.Set(3, 4, RelPeer)
	if rs.Of(3, 4) != RelPeer || rs.Of(4, 3) != RelPeer {
		t.Error("peer not symmetric")
	}
	rs.Set(5, 6, RelProvider)
	if rs.Of(6, 5) != RelCustomer {
		t.Error("inverse of provider is not customer")
	}
	if rs.Of(9, 9) != RelNone {
		t.Error("unset relationship not RelNone")
	}
	if rs.Len() != 6 {
		t.Errorf("Len = %d", rs.Len())
	}
}

// TestRelationshipsClass pins the one mapping from Rel to route class:
// customer and unannotated 0, peer 1, provider 2, and 0 for everything
// without a policy.
func TestRelationshipsClass(t *testing.T) {
	rs := NewRelationships()
	rs.Set(1, 2, RelCustomer)
	rs.Set(1, 3, RelPeer)
	for _, c := range []struct {
		rs   *Relationships
		a, b int
		want uint8
	}{
		{rs, 1, 2, 0}, {rs, 2, 1, 2}, {rs, 1, 3, 1}, {rs, 3, 1, 1}, {rs, 1, 4, 0}, {nil, 2, 1, 0},
	} {
		if got := c.rs.Class(c.a, c.b); got != c.want {
			t.Errorf("Class(%d, %d) = %d, want %d (policy %v)", c.a, c.b, got, c.want, c.rs != nil)
		}
	}
}

func TestRelStrings(t *testing.T) {
	if RelCustomer.String() != "customer" || RelPeer.String() != "peer" ||
		RelProvider.String() != "provider" || RelNone.String() != "none" {
		t.Error("relationship names wrong")
	}
}

func TestInferRelationshipsDegreeHeuristic(t *testing.T) {
	// Star: hub 0 with 5 leaves, plus leaf-leaf link 1-2.
	nw := NewNetwork(6)
	for i := 1; i <= 5; i++ {
		if err := nw.AddLink(0, i, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := nw.AddLink(1, 2, false); err != nil {
		t.Fatal(err)
	}
	rs, err := InferRelationships(nw, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	// Hub (degree 5) is the provider of each leaf (degree 1-2).
	if rs.Of(0, 1) != RelCustomer {
		t.Errorf("hub sees leaf as %v, want customer", rs.Of(0, 1))
	}
	if rs.Of(1, 0) != RelProvider {
		t.Errorf("leaf sees hub as %v, want provider", rs.Of(1, 0))
	}
	// Equal-degree leaves peer.
	if rs.Of(1, 2) != RelPeer {
		t.Errorf("leaf-leaf relationship %v, want peer", rs.Of(1, 2))
	}
	if err := rs.Validate(nw); err != nil {
		t.Errorf("inferred relationships inconsistent: %v", err)
	}
}

func TestInferRelationshipsRejectsBadRatio(t *testing.T) {
	nw := NewNetwork(2)
	_ = nw.AddLink(0, 1, false)
	if _, err := InferRelationships(nw, 0.5); err == nil {
		t.Error("ratio < 1 accepted")
	}
}

func TestValidateDetectsInconsistency(t *testing.T) {
	nw := NewNetwork(2)
	_ = nw.AddLink(0, 1, false)
	rs := NewRelationships()
	rs.of[[2]int{0, 1}] = RelCustomer
	rs.of[[2]int{1, 0}] = RelPeer // inconsistent on purpose
	if err := rs.Validate(nw); err == nil {
		t.Error("inconsistent relationships accepted")
	}
}

func TestValleyFree(t *testing.T) {
	// Chain 0-1-2-3-4 with: 0 customer of 1, 1 customer of 2 (2 is the
	// top), 3 customer of 2, 4 customer of 3. Peers: 1-3.
	rs := NewRelationships()
	rs.Set(1, 0, RelCustomer)
	rs.Set(2, 1, RelCustomer)
	rs.Set(2, 3, RelCustomer)
	rs.Set(3, 4, RelCustomer)
	rs.Set(1, 3, RelPeer)
	identity := func(as int) (int, bool) { return as, true }

	cases := []struct {
		src  int
		path []int
		ok   bool
	}{
		{0, []int{1, 2, 3, 4}, true},  // up, up(peak), down, down
		{0, []int{1, 3, 4}, true},     // up, peer at peak, down
		{4, []int{3, 2, 1, 0}, true},  // mirror
		{2, []int{1, 3}, false},       // down to 1 then peer: invalid
		{2, []int{1, 0}, true},        // pure downhill
		{0, []int{1}, true},           // single hop
		{1, []int{3, 2}, false},       // peer then up: invalid
		{4, []int{3, 2, 1, 3}, false}, // down then peer again
	}
	for i, c := range cases {
		if got := ValleyFree(rs, c.src, c.path, identity); got != c.ok {
			t.Errorf("case %d: ValleyFree(src=%d, %v) = %v, want %v", i, c.src, c.path, got, c.ok)
		}
	}
}

func TestValleyFreeUnknownRelationshipsPass(t *testing.T) {
	rs := NewRelationships()
	identity := func(as int) (int, bool) { return as, true }
	if !ValleyFree(rs, 0, []int{1, 2}, identity) {
		t.Error("unknown relationships must not be judged invalid")
	}
	if !ValleyFree(rs, 0, []int{}, identity) {
		t.Error("empty path must be valley-free")
	}
	missing := func(as int) (int, bool) { return 0, false }
	if !ValleyFree(rs, 0, []int{1, 2}, missing) {
		t.Error("unresolvable AS must not be judged invalid")
	}
}

func TestInferOnPaperTopology(t *testing.T) {
	rng := des.NewRNG(5)
	nw, err := SkewedNetwork(Skewed7030(120), rng)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := InferRelationships(nw, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Validate(nw); err != nil {
		t.Fatal(err)
	}
	// Every external link must be classified.
	if rs.Len() != 2*nw.NumLinks() {
		t.Errorf("classified %d directed entries for %d links", rs.Len(), nw.NumLinks())
	}
	// The degree-8 hubs should be providers on most of their links.
	providers := 0
	for _, l := range nw.Links() {
		if rs.Of(l.A, l.B) == RelCustomer || rs.Of(l.B, l.A) == RelCustomer {
			providers++
		}
	}
	if providers == 0 {
		t.Error("no provider-customer links inferred in a 70-30 topology")
	}
}

func TestHierarchicalRelationshipsStructure(t *testing.T) {
	// Path 0-1-2 with hub 1 (degree 2): root=1, levels 1,0,1.
	nw := NewNetwork(3)
	_ = nw.AddLink(0, 1, false)
	_ = nw.AddLink(1, 2, false)
	rs, err := HierarchicalRelationships(nw)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Of(1, 0) != RelCustomer || rs.Of(1, 2) != RelCustomer {
		t.Errorf("root not the provider: %v %v", rs.Of(1, 0), rs.Of(1, 2))
	}
	if err := rs.Validate(nw); err != nil {
		t.Error(err)
	}
}

func TestHierarchicalRelationshipsSameLevelPeers(t *testing.T) {
	// Square 0-1, 0-2, 1-3, 2-3 plus hub boost on 0: 0-4.
	nw := NewNetwork(5)
	for _, l := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {0, 4}} {
		_ = nw.AddLink(l[0], l[1], false)
	}
	rs, err := HierarchicalRelationships(nw)
	if err != nil {
		t.Fatal(err)
	}
	// Root is 0 (degree 3); 1 and 2 at level 1; link 1-3/2-3 go down to
	// level 2. No same-level links here except none... verify validity.
	if err := rs.Validate(nw); err != nil {
		t.Error(err)
	}
	if rs.Of(0, 1) != RelCustomer {
		t.Errorf("root->1 = %v", rs.Of(0, 1))
	}
	if rs.Of(3, 1) != RelProvider {
		t.Errorf("3 sees 1 as %v, want provider", rs.Of(3, 1))
	}
}

func TestHierarchicalRequiresConnected(t *testing.T) {
	nw := NewNetwork(4)
	_ = nw.AddLink(0, 1, false)
	if _, err := HierarchicalRelationships(nw); err == nil {
		t.Error("disconnected graph accepted")
	}
	if _, err := HierarchicalRelationships(NewNetwork(0)); err != nil {
		t.Error("empty graph rejected")
	}
}

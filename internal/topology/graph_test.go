package topology

import (
	"slices"
	"sort"
	"testing"

	"bgpsim/internal/des"
)

func TestNewNetworkBasics(t *testing.T) {
	nw := NewNetwork(5)
	if nw.NumNodes() != 5 {
		t.Fatalf("NumNodes = %d", nw.NumNodes())
	}
	if nw.NumLinks() != 0 {
		t.Fatalf("NumLinks = %d", nw.NumLinks())
	}
	for i := 0; i < 5; i++ {
		if nw.ASOf(i) != i {
			t.Errorf("node %d AS = %d, want %d (AS-level default)", i, nw.ASOf(i), i)
		}
	}
	if nw.Grid() != DefaultGrid {
		t.Errorf("Grid = %v, want %v", nw.Grid(), DefaultGrid)
	}
}

func TestAddLinkRejectsSelfLoopDuplicateAndRange(t *testing.T) {
	nw := NewNetwork(3)
	if err := nw.AddLink(0, 0, false); err == nil {
		t.Error("self-loop accepted")
	}
	if err := nw.AddLink(0, 1, false); err != nil {
		t.Fatalf("AddLink: %v", err)
	}
	if err := nw.AddLink(1, 0, false); err == nil {
		t.Error("duplicate link accepted (reversed order)")
	}
	if err := nw.AddLink(0, 3, false); err == nil {
		t.Error("out-of-range link accepted")
	}
	if err := nw.AddLink(-1, 0, false); err == nil {
		t.Error("negative id accepted")
	}
	if nw.NumLinks() != 1 {
		t.Errorf("NumLinks = %d, want 1", nw.NumLinks())
	}
}

func TestDegreeAndHasLink(t *testing.T) {
	nw := NewNetwork(4)
	for _, l := range [][2]int{{0, 1}, {0, 2}, {0, 3}} {
		if err := nw.AddLink(l[0], l[1], false); err != nil {
			t.Fatal(err)
		}
	}
	if nw.Degree(0) != 3 {
		t.Errorf("Degree(0) = %d", nw.Degree(0))
	}
	if nw.Degree(1) != 1 {
		t.Errorf("Degree(1) = %d", nw.Degree(1))
	}
	if !nw.HasLink(2, 0) || nw.HasLink(1, 2) {
		t.Error("HasLink wrong")
	}
	if nw.AvgDegree() != 1.5 {
		t.Errorf("AvgDegree = %v, want 1.5", nw.AvgDegree())
	}
}

func TestRemoveLink(t *testing.T) {
	nw := NewNetwork(3)
	_ = nw.AddLink(0, 1, false)
	_ = nw.AddLink(1, 2, false)
	if !nw.RemoveLink(0, 1) {
		t.Fatal("RemoveLink(0,1) = false")
	}
	if nw.HasLink(0, 1) {
		t.Error("link still present")
	}
	if nw.RemoveLink(0, 1) {
		t.Error("second RemoveLink returned true")
	}
	if nw.NumLinks() != 1 {
		t.Errorf("NumLinks = %d, want 1", nw.NumLinks())
	}
	if nw.Degree(1) != 1 {
		t.Errorf("Degree(1) = %d, want 1", nw.Degree(1))
	}
}

func TestExternalDegreeCountsOnlyInterAS(t *testing.T) {
	nw := NewNetwork(3)
	nw.SetAS(1, 0) // node 1 shares AS 0 with node 0
	_ = nw.AddLink(0, 1, true)
	_ = nw.AddLink(0, 2, false)
	if nw.Degree(0) != 2 {
		t.Errorf("Degree(0) = %d", nw.Degree(0))
	}
	if nw.ExternalDegree(0) != 1 {
		t.Errorf("ExternalDegree(0) = %d, want 1", nw.ExternalDegree(0))
	}
}

func TestComponentsAndConnected(t *testing.T) {
	nw := NewNetwork(6)
	_ = nw.AddLink(0, 1, false)
	_ = nw.AddLink(1, 2, false)
	_ = nw.AddLink(3, 4, false)
	comps := nw.Components()
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3", len(comps))
	}
	if len(comps[0]) != 3 || len(comps[1]) != 2 || len(comps[2]) != 1 {
		t.Errorf("component sizes = %d,%d,%d; want 3,2,1 (largest first)",
			len(comps[0]), len(comps[1]), len(comps[2]))
	}
	if nw.Connected() {
		t.Error("Connected() = true for disconnected graph")
	}
	_ = nw.AddLink(2, 3, false)
	_ = nw.AddLink(4, 5, false)
	if !nw.Connected() {
		t.Error("Connected() = false after joining")
	}
}

func TestBFSHops(t *testing.T) {
	// Path 0-1-2-3 plus shortcut 0-3.
	nw := NewNetwork(4)
	_ = nw.AddLink(0, 1, false)
	_ = nw.AddLink(1, 2, false)
	_ = nw.AddLink(2, 3, false)
	_ = nw.AddLink(0, 3, false)
	d := nw.BFSHops(0, nil)
	want := []int{0, 1, 2, 1}
	for i, w := range want {
		if d[i] != w {
			t.Errorf("dist[%d] = %d, want %d", i, d[i], w)
		}
	}
}

func TestBFSHopsWithDeadNodes(t *testing.T) {
	// 0-1-2 with 1 dead: 2 unreachable.
	nw := NewNetwork(3)
	_ = nw.AddLink(0, 1, false)
	_ = nw.AddLink(1, 2, false)
	alive := []bool{true, false, true}
	d := nw.BFSHops(0, alive)
	if d[0] != 0 || d[1] != -1 || d[2] != -1 {
		t.Errorf("dist = %v, want [0 -1 -1]", d)
	}
	// Dead source: everything unreachable.
	d = nw.BFSHops(1, alive)
	for i, v := range d {
		if v != -1 {
			t.Errorf("dead-source dist[%d] = %d", i, v)
		}
	}
}

func TestASGraphHops(t *testing.T) {
	// Two-router AS 0 (nodes 0,1), AS 1 (node 2), AS 2 (node 3).
	// External: 1-2, 2-3. AS hops: AS0->AS1 = 1, AS0->AS2 = 2.
	nw := NewNetwork(4)
	nw.SetAS(1, 0)
	nw.SetAS(2, 1)
	nw.SetAS(3, 2)
	_ = nw.AddLink(0, 1, true)
	_ = nw.AddLink(1, 2, false)
	_ = nw.AddLink(2, 3, false)
	d := nw.ASGraphHops(0, nil)
	if d[0] != 0 || d[1] != 1 || d[2] != 2 {
		t.Errorf("AS hops = %v", d)
	}
	// Kill node 2 (all of AS 1): AS 2 unreachable.
	alive := []bool{true, true, false, true}
	d = nw.ASGraphHops(0, alive)
	if _, ok := d[1]; ok {
		t.Error("dead AS 1 reported reachable")
	}
	if _, ok := d[2]; ok {
		t.Error("AS 2 reachable despite cut")
	}
}

func TestCloneIsDeep(t *testing.T) {
	nw := NewNetwork(3)
	_ = nw.AddLink(0, 1, false)
	cp := nw.Clone()
	_ = cp.AddLink(1, 2, false)
	if nw.NumLinks() != 1 {
		t.Error("mutating clone changed original link count")
	}
	if nw.HasLink(1, 2) {
		t.Error("mutating clone changed original adjacency")
	}
}

func TestLinksEnumeratesEachOnce(t *testing.T) {
	nw := NewNetwork(4)
	_ = nw.AddLink(0, 1, false)
	_ = nw.AddLink(2, 1, true)
	_ = nw.AddLink(3, 0, false)
	links := nw.Links()
	if len(links) != 3 {
		t.Fatalf("Links() returned %d entries, want 3", len(links))
	}
	seen := make(map[[2]int]bool)
	for _, l := range links {
		if l.A >= l.B {
			t.Errorf("link %v not normalized A<B", l)
		}
		seen[[2]int{l.A, l.B}] = l.Internal
	}
	if !seen[[2]int{1, 2}] {
		t.Error("internal flag lost for link 1-2")
	}
}

func TestNodesInASAndNumASes(t *testing.T) {
	nw := NewNetwork(5)
	nw.SetAS(1, 0)
	nw.SetAS(3, 2)
	if got := nw.NumASes(); got != 3 {
		t.Errorf("NumASes = %d, want 3", got)
	}
	nodes := nw.NodesInAS(0)
	if len(nodes) != 2 || nodes[0] != 0 || nodes[1] != 1 {
		t.Errorf("NodesInAS(0) = %v", nodes)
	}
}

func TestDegreeHistogramAndMaxDegree(t *testing.T) {
	nw := NewNetwork(4)
	_ = nw.AddLink(0, 1, false)
	_ = nw.AddLink(0, 2, false)
	h := nw.DegreeHistogram()
	if h[2] != 1 || h[1] != 2 || h[0] != 1 {
		t.Errorf("histogram = %v", h)
	}
	if nw.MaxDegree() != 2 {
		t.Errorf("MaxDegree = %d", nw.MaxDegree())
	}
}

func TestConnectMergesComponentsPreservingDegrees(t *testing.T) {
	rng := des.NewRNG(1)
	// Two triangles.
	nw := NewNetwork(6)
	for _, l := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}} {
		_ = nw.AddLink(l[0], l[1], false)
	}
	before := SortedDegrees(nw)
	if err := connect(newLinkIndex(nw, make([]int32, nw.NumNodes())), rng); err != nil {
		t.Fatalf("connect: %v", err)
	}
	if !nw.Connected() {
		t.Fatal("still disconnected")
	}
	after := SortedDegrees(nw)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("degree sequence changed: %v -> %v", before, after)
		}
	}
}

func TestConnectAttachesIsolatedNode(t *testing.T) {
	rng := des.NewRNG(2)
	nw := NewNetwork(4)
	_ = nw.AddLink(0, 1, false)
	_ = nw.AddLink(1, 2, false)
	// node 3 isolated
	if err := connect(newLinkIndex(nw, make([]int32, nw.NumNodes())), rng); err != nil {
		t.Fatalf("connect: %v", err)
	}
	if !nw.Connected() {
		t.Fatal("isolated node not attached")
	}
	if nw.Degree(3) != 1 {
		t.Errorf("isolated node degree after attach = %d, want 1", nw.Degree(3))
	}
}

// TestComponentSortMatchesSortSlice pins what find relies on to keep
// every world bit-identical: slices.SortFunc orders spans, ties
// included, exactly as the sort.Slice it replaced did.
func TestComponentSortMatchesSortSlice(t *testing.T) {
	rng := des.NewRNG(9)
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(80)
		a := make([]span, n)
		for i := range a {
			// Few distinct sizes, so most comparisons are ties.
			a[i] = span{start: i, end: i + 1 + rng.Intn(4)}
		}
		b := append([]span(nil), a...)
		sort.Slice(a, func(i, j int) bool { return a[i].end-a[i].start > a[j].end-a[j].start })
		slices.SortFunc(b, largerFirst)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d (%d spans): position %d is %v under sort.Slice, %v under slices.SortFunc", trial, n, i, a[i], b[i])
			}
		}
	}
}

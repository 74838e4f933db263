package topology

import (
	"slices"
	"sort"
	"testing"

	"bgpsim/internal/des"
)

func TestPlaceUniformWithinGrid(t *testing.T) {
	nw := NewNetwork(200)
	PlaceUniform(nw, des.NewRNG(1))
	g := nw.Grid()
	for i := 0; i < nw.NumNodes(); i++ {
		p := nw.Node(i).Pos
		if p.X < 0 || p.X > g || p.Y < 0 || p.Y > g {
			t.Fatalf("node %d at %v outside grid", i, p)
		}
	}
}

func TestGridCenter(t *testing.T) {
	nw := NewNetwork(1)
	c := GridCenter(nw)
	if c.X != DefaultGrid/2 || c.Y != DefaultGrid/2 {
		t.Errorf("center = %v", c)
	}
	nw.SetGrid(400)
	if c := GridCenter(nw); c.X != 200 || c.Y != 200 {
		t.Errorf("center after SetGrid = %v", c)
	}
}

func TestNearestNodesOrderingAndFilter(t *testing.T) {
	nw := NewNetwork(4)
	nw.SetPos(0, Point{X: 0, Y: 0})
	nw.SetPos(1, Point{X: 10, Y: 0})
	nw.SetPos(2, Point{X: 20, Y: 0})
	nw.SetPos(3, Point{X: 30, Y: 0})
	got := NearestNodes(nw, Point{X: 0, Y: 0}, 2, nil)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("nearest = %v", got)
	}
	// Alive filter skips dead nodes.
	alive := []bool{false, true, true, true}
	got = NearestNodes(nw, Point{X: 0, Y: 0}, 2, alive)
	if got[0] != 1 || got[1] != 2 {
		t.Errorf("filtered nearest = %v", got)
	}
	// k beyond the population clamps.
	if got := NearestNodes(nw, Point{}, 99, alive); len(got) != 3 {
		t.Errorf("clamped = %v", got)
	}
}

func TestNearestNodesTieBreaksByID(t *testing.T) {
	nw := NewNetwork(3)
	for i := 0; i < 3; i++ {
		nw.SetPos(i, Point{X: 5, Y: 5}) // identical positions
	}
	got := NearestNodes(nw, Point{X: 5, Y: 5}, 3, nil)
	for i, id := range got {
		if id != i {
			t.Fatalf("tie-break not by id: %v", got)
		}
	}
}

func TestPlaceInSquareClipsToGrid(t *testing.T) {
	nw := NewNetwork(50)
	ids := make([]int, 50)
	for i := range ids {
		ids[i] = i
	}
	// Square centered at the corner: placements must clip at 0.
	PlaceInSquare(nw, ids, Point{X: 0, Y: 0}, 400, des.NewRNG(4))
	for _, id := range ids {
		p := nw.Node(id).Pos
		if p.X < 0 || p.Y < 0 || p.X > 200 || p.Y > 200 {
			t.Fatalf("node %d at %v outside clipped corner square", id, p)
		}
	}
}

// nearestBySort is the reference NearestNodes: sort every alive
// candidate by (distance, id) and take the first k.
func nearestBySort(nw *Network, p Point, k int, alive []bool) []int {
	var cands []nodeDist
	for i := 0; i < nw.NumNodes(); i++ {
		if alive == nil || alive[i] {
			cands = append(cands, nodeDist{id: i, d: nw.Node(i).Pos.Dist(p)})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].before(cands[j]) })
	out := []int{}
	for _, c := range cands[:min(k, len(cands))] {
		out = append(out, c.id)
	}
	return out
}

// TestNearestNodesMatchesSortReference compares the heap selection with
// a full sort on random networks for every k from 0 to past the alive
// count. Positions come from a small lattice, so many nodes tie on
// distance and some share a position, and half the cases filter by a
// random alive mask.
func TestNearestNodesMatchesSortReference(t *testing.T) {
	rng := des.NewRNG(7)
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(80)
		nw := NewNetwork(n)
		for i := 0; i < n; i++ {
			nw.SetPos(i, Point{X: float64(10 * rng.Intn(6)), Y: float64(10 * rng.Intn(6))})
		}
		var alive []bool
		if trial%2 == 1 {
			alive = make([]bool, n)
			for i := range alive {
				alive[i] = rng.Intn(3) > 0
			}
		}
		p := Point{X: float64(10 * rng.Intn(6)), Y: float64(10 * rng.Intn(6))}
		for k := 0; k <= n+2; k++ {
			got, want := NearestNodes(nw, p, k, alive), nearestBySort(nw, p, k, alive)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d (n %d, alive %v) k %d: heap %v, sort %v", trial, n, alive != nil, k, got, want)
			}
		}
	}
}

// TestNearestNodesAllocs pins the selection's allocations: the k-entry
// heap and the result, whatever the network size.
func TestNearestNodesAllocs(t *testing.T) {
	for _, n := range []int{30, 500} {
		nw := NewNetwork(n)
		PlaceUniform(nw, des.NewRNG(int64(n)))
		center := GridCenter(nw)
		if a := testing.AllocsPerRun(50, func() { NearestNodes(nw, center, n/10, nil) }); a != 2 {
			t.Errorf("%d nodes: NearestNodes makes %v allocations, want 2", n, a)
		}
	}
}

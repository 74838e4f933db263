package topology

import "bgpsim/internal/des"

// PlaceUniform scatters every node uniformly at random on the grid, the
// placement scheme the paper uses ("We randomly placed all the routers on
// a 1000x1000 grid").
func PlaceUniform(nw *Network, rng *des.RNG) {
	g := nw.Grid()
	for i := 0; i < nw.NumNodes(); i++ {
		nw.SetPos(i, Point{X: rng.Float64() * g, Y: rng.Float64() * g})
	}
}

// PlaceInSquare scatters the listed nodes uniformly in the axis-aligned
// square of side length centered at c, clipped to the grid. Used to give
// each AS a geographic extent proportional to its size.
func PlaceInSquare(nw *Network, nodes []int, c Point, side float64, rng *des.RNG) {
	g := nw.Grid()
	half := side / 2
	for _, id := range nodes {
		p := Point{
			X: clamp(c.X+(rng.Float64()-0.5)*2*half, 0, g),
			Y: clamp(c.Y+(rng.Float64()-0.5)*2*half, 0, g),
		}
		nw.SetPos(id, p)
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// GridCenter returns the center point of the placement grid.
func GridCenter(nw *Network) Point {
	return Point{X: nw.Grid() / 2, Y: nw.Grid() / 2}
}

// nodeDist is a candidate of NearestNodes: node id at distance d.
type nodeDist struct {
	id int
	d  float64
}

// before orders candidates by distance, then id: a total order, so the
// k nearest are one set in one order however they are found.
func (a nodeDist) before(b nodeDist) bool {
	return a.d < b.d || (a.d == b.d && a.id < b.id)
}

// NearestNodes returns the ids of the k nodes nearest to p (Euclidean),
// restricted to alive nodes when alive is non-nil. Ties break by node ID
// so results are deterministic. It keeps the k best candidates in a
// max-heap whose root is the worst of them, so it allocates the heap and
// the result and nothing per node.
func NearestNodes(nw *Network, p Point, k int, alive []bool) []int {
	k = max(0, min(k, nw.NumNodes()))
	heap := make([]nodeDist, 0, k)
	for i := 0; i < nw.NumNodes() && k > 0; i++ {
		if alive != nil && !alive[i] {
			continue
		}
		c := nodeDist{id: i, d: nw.Node(i).Pos.Dist(p)}
		switch {
		case len(heap) < k:
			heap = append(heap, c)
			siftUp(heap, len(heap)-1)
		case c.before(heap[0]):
			heap[0] = c
			siftDown(heap, 0)
		}
	}
	// Popping the root, the worst left, fills the result from its end.
	out := make([]int, len(heap))
	for n := len(heap) - 1; n >= 0; n-- {
		out[n] = heap[0].id
		heap[0] = heap[n]
		siftDown(heap[:n], 0)
	}
	return out
}

// siftUp restores the max-heap order (by before) above h[i].
func siftUp(h []nodeDist, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h[parent].before(h[i]) {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

// siftDown restores the max-heap order (by before) below h[i].
func siftDown(h []nodeDist, i int) {
	for {
		worst, l := i, 2*i+1
		if l < len(h) && h[worst].before(h[l]) {
			worst = l
		}
		if r := l + 1; r < len(h) && h[worst].before(h[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

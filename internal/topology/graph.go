// Package topology builds the network graphs the BGP experiments run on.
//
// It replaces the modified BRITE generator used in the paper with the
// worlds the paper draws: two-class "skewed" degree distributions (the
// 70-30 / 50-50 / 85-15 and dense 50-50 topologies of Figs 1–12), an
// Internet-like heavy-tailed distribution, geographic placement on a
// 1000×1000 grid, and multi-router-per-AS expansion for the "realistic"
// topologies of Fig 13.
package topology

import (
	"fmt"
	"math"
	"slices"
)

// Point is a position on the placement grid.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Dist returns the Euclidean distance to q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Node is a router (or, in AS-level topologies, a whole AS).
type Node struct {
	ID  int   `json:"id"`
	AS  int   `json:"as"`
	Pos Point `json:"pos"`
}

// Neighbor is one endpoint of an adjacency.
type Neighbor struct {
	ID       int  `json:"id"`
	Internal bool `json:"internal"` // same-AS (IBGP) adjacency
}

// DefaultGrid is the side length of the placement grid used in the paper.
const DefaultGrid = 1000.0

// Network is an undirected graph of routers grouped into ASes. In AS-level
// topologies every node is its own AS and all links are external.
type Network struct {
	nodes []Node
	adj   [][]Neighbor
	links int
	grid  float64
}

// NewNetwork returns a network with n isolated nodes, each its own AS,
// positioned at the origin.
func NewNetwork(n int) *Network {
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = Node{ID: i, AS: i}
	}
	return &Network{nodes: nodes, adj: make([][]Neighbor, n), grid: DefaultGrid}
}

// NumNodes returns the node count.
func (nw *Network) NumNodes() int { return len(nw.nodes) }

// NumLinks returns the undirected link count.
func (nw *Network) NumLinks() int { return nw.links }

// Grid returns the placement grid side length.
func (nw *Network) Grid() float64 { return nw.grid }

// SetGrid sets the placement grid side length.
func (nw *Network) SetGrid(g float64) { nw.grid = g }

// Node returns node i by value.
func (nw *Network) Node(i int) Node { return nw.nodes[i] }

// SetPos places node i.
func (nw *Network) SetPos(i int, p Point) { nw.nodes[i].Pos = p }

// SetAS assigns node i to an AS.
func (nw *Network) SetAS(i, as int) { nw.nodes[i].AS = as }

// ASOf returns the AS number of node i.
func (nw *Network) ASOf(i int) int { return nw.nodes[i].AS }

// Neighbors returns the adjacency list of node i. The caller must not
// modify the returned slice.
func (nw *Network) Neighbors(i int) []Neighbor { return nw.adj[i] }

// Degree returns the total degree of node i.
func (nw *Network) Degree(i int) int { return len(nw.adj[i]) }

// ExternalDegree returns the number of inter-AS adjacencies of node i.
func (nw *Network) ExternalDegree(i int) int {
	d := 0
	for _, nb := range nw.adj[i] {
		if !nb.Internal {
			d++
		}
	}
	return d
}

// HasLink reports whether nodes a and b are adjacent.
func (nw *Network) HasLink(a, b int) bool {
	// Scan the shorter list.
	if len(nw.adj[a]) > len(nw.adj[b]) {
		a, b = b, a
	}
	for _, nb := range nw.adj[a] {
		if nb.ID == b {
			return true
		}
	}
	return false
}

// AddLink connects a and b. Self-loops and duplicate links are rejected.
func (nw *Network) AddLink(a, b int, internal bool) error {
	if a == b {
		return fmt.Errorf("topology: self-loop at node %d", a)
	}
	if a < 0 || b < 0 || a >= len(nw.nodes) || b >= len(nw.nodes) {
		return fmt.Errorf("topology: link %d-%d out of range", a, b)
	}
	if nw.HasLink(a, b) {
		return fmt.Errorf("topology: duplicate link %d-%d", a, b)
	}
	nw.adj[a] = append(nw.adj[a], Neighbor{ID: b, Internal: internal})
	nw.adj[b] = append(nw.adj[b], Neighbor{ID: a, Internal: internal})
	nw.links++
	return nil
}

// CheckSessions enforces the session rule the simulator and the snapshot
// rely on (DESIGN.md, BGP invariants): a link is internal (IBGP) exactly
// when both ends are in one AS.
func (nw *Network) CheckSessions() error {
	for a, list := range nw.adj {
		for _, nb := range list {
			if as, bs := nw.nodes[a].AS, nw.nodes[nb.ID].AS; nb.Internal != (as == bs) {
				return fmt.Errorf("topology: link %d-%d (internal %v) joins AS %d and AS %d; a link is internal exactly when both ends are in one AS",
					a, nb.ID, nb.Internal, as, bs)
			}
		}
	}
	return nil
}

// RemoveLink disconnects a and b if they are adjacent.
func (nw *Network) RemoveLink(a, b int) bool {
	removed := false
	nw.adj[a], removed = dropNeighbor(nw.adj[a], b)
	if !removed {
		return false
	}
	nw.adj[b], _ = dropNeighbor(nw.adj[b], a)
	nw.links--
	return true
}

func dropNeighbor(list []Neighbor, id int) ([]Neighbor, bool) {
	for i, nb := range list {
		if nb.ID == id {
			list[i] = list[len(list)-1]
			return list[:len(list)-1], true
		}
	}
	return list, false
}

// AvgDegree returns the mean node degree.
func (nw *Network) AvgDegree() float64 {
	if len(nw.nodes) == 0 {
		return 0
	}
	return 2 * float64(nw.links) / float64(len(nw.nodes))
}

// DegreeHistogram returns a map from degree to node count.
func (nw *Network) DegreeHistogram() map[int]int {
	h := make(map[int]int)
	for i := range nw.nodes {
		h[nw.Degree(i)]++
	}
	return h
}

// MaxDegree returns the largest node degree.
func (nw *Network) MaxDegree() int {
	m := 0
	for i := range nw.nodes {
		if d := nw.Degree(i); d > m {
			m = d
		}
	}
	return m
}

// Components returns the connected components as slices of node IDs,
// largest first, each in BFS enqueue order from its lowest node.
func (nw *Network) Components() [][]int {
	var c components
	c.find(nw)
	out := make([][]int, len(c.spans))
	for k := range out {
		out[k] = c.nodes(k)
	}
	return out
}

// components is a reusable component search: every node in BFS enqueue
// order, component after component, with one span of that order per
// component. find reuses the buffers of the previous search.
type components struct {
	seen  []bool
	order []int
	spans []span
}

// span is the half-open range [start, end) of components.order.
type span struct{ start, end int }

// find labels nw's components, largest first. Ties between equal-size
// components resolve as sort.Slice over the discovery order leaves them:
// slices.SortFunc is the same pattern-defeating quicksort, generated from
// the same template, so it makes the same moves without sort.Slice's
// reflection and allocations.
func (c *components) find(nw *Network) {
	n := len(nw.nodes)
	if cap(c.seen) < n {
		c.seen = make([]bool, n)
		c.order = make([]int, 0, n)
		c.spans = make([]span, 0, n)
	}
	c.seen = c.seen[:n]
	clear(c.seen)
	c.order = c.order[:0]
	c.spans = c.spans[:0]
	for i := range nw.nodes {
		if c.seen[i] {
			continue
		}
		start := len(c.order)
		c.seen[i] = true
		c.order = append(c.order, i)
		// order doubles as the BFS queue: head walks it as it grows.
		for head := start; head < len(c.order); head++ {
			for _, nb := range nw.adj[c.order[head]] {
				if !c.seen[nb.ID] {
					c.seen[nb.ID] = true
					c.order = append(c.order, nb.ID)
				}
			}
		}
		c.spans = append(c.spans, span{start, len(c.order)})
	}
	slices.SortFunc(c.spans, largerFirst)
}

// largerFirst orders spans by decreasing length.
func largerFirst(a, b span) int { return (b.end - b.start) - (a.end - a.start) }

// nodes returns component k's nodes in BFS order. The slice is capped, so
// appending to it never overwrites the next component.
func (c *components) nodes(k int) []int {
	s := c.spans[k]
	return c.order[s.start:s.end:s.end]
}

// Connected reports whether the network is a single component.
func (nw *Network) Connected() bool {
	n := len(nw.nodes)
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	queue := make([]int, 1, n)
	seen[0] = true
	for head := 0; head < len(queue); head++ {
		for _, nb := range nw.adj[queue[head]] {
			if !seen[nb.ID] {
				seen[nb.ID] = true
				queue = append(queue, nb.ID)
			}
		}
	}
	return len(queue) == n
}

// BFSHops returns the hop distance from src to every node, with -1 for
// unreachable nodes. alive, if non-nil, restricts the traversal to nodes
// for which alive[i] is true (src must be alive).
func (nw *Network) BFSHops(src int, alive []bool) []int {
	dist := make([]int, len(nw.nodes))
	for i := range dist {
		dist[i] = -1
	}
	if alive != nil && !alive[src] {
		return dist
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, nb := range nw.adj[v] {
			if alive != nil && !alive[nb.ID] {
				continue
			}
			if dist[nb.ID] == -1 {
				dist[nb.ID] = dist[v] + 1
				queue = append(queue, nb.ID)
			}
		}
	}
	return dist
}

// NumASes returns the number of distinct ASes.
func (nw *Network) NumASes() int {
	seen := make(map[int]struct{})
	for i := range nw.nodes {
		seen[nw.nodes[i].AS] = struct{}{}
	}
	return len(seen)
}

// NodesInAS returns the node IDs belonging to AS as, in ID order.
func (nw *Network) NodesInAS(as int) []int {
	var out []int
	for i := range nw.nodes {
		if nw.nodes[i].AS == as {
			out = append(out, i)
		}
	}
	return out
}

// ASGraphHops returns AS-level hop distances from AS src to every AS,
// treating each AS as a supernode connected by external links between
// alive routers. Unreachable ASes get -1. alive, if non-nil, restricts the
// traversal to alive routers.
func (nw *Network) ASGraphHops(src int, alive []bool) map[int]int {
	// Build AS adjacency over alive routers.
	adj := make(map[int]map[int]struct{})
	for i := range nw.nodes {
		if alive != nil && !alive[i] {
			continue
		}
		a := nw.nodes[i].AS
		if _, ok := adj[a]; !ok {
			adj[a] = make(map[int]struct{})
		}
		for _, nb := range nw.adj[i] {
			if nb.Internal {
				continue
			}
			if alive != nil && !alive[nb.ID] {
				continue
			}
			adj[a][nw.nodes[nb.ID].AS] = struct{}{}
		}
	}
	dist := make(map[int]int, len(adj))
	if _, ok := adj[src]; !ok {
		return dist
	}
	// Note: an AS whose routers are partitioned internally is treated as a
	// single supernode here; the BGP model's IBGP full mesh matches that.
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for w := range adj[v] {
			if _, ok := dist[w]; !ok {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// Clone returns a deep copy of the network.
func (nw *Network) Clone() *Network {
	cp := &Network{
		nodes: append([]Node(nil), nw.nodes...),
		adj:   make([][]Neighbor, len(nw.adj)),
		links: nw.links,
		grid:  nw.grid,
	}
	for i, l := range nw.adj {
		cp.adj[i] = append([]Neighbor(nil), l...)
	}
	return cp
}

// Links returns every undirected link exactly once (a < b).
func (nw *Network) Links() []Neighbor2 {
	return nw.appendLinks(make([]Neighbor2, 0, nw.links))
}

// appendLinks appends Links() to dst.
func (nw *Network) appendLinks(dst []Neighbor2) []Neighbor2 {
	for a := range nw.adj {
		dst = nw.appendLinksAt(dst, a)
	}
	return dst
}

// appendLinksAt appends node a's links to higher-numbered nodes, in
// adjacency order.
func (nw *Network) appendLinksAt(dst []Neighbor2, a int) []Neighbor2 {
	for _, nb := range nw.adj[a] {
		if a < nb.ID {
			dst = append(dst, Neighbor2{A: a, B: nb.ID, Internal: nb.Internal})
		}
	}
	return dst
}

// Neighbor2 is an undirected link with both endpoints.
type Neighbor2 struct {
	A        int  `json:"a"`
	B        int  `json:"b"`
	Internal bool `json:"internal"`
}

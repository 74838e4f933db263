package topology

import (
	"slices"

	"bgpsim/internal/des"
)

// connect merges the components of the indexed network into one using
// degree-preserving double edge swaps where possible, falling back to
// adding a single link for edgeless components (degree deviation of
// one). Each round merges the second-largest component into the largest:
// slices.SortFunc ranks the components by decreasing size from ascending
// minimum node, the order a search from node 0 upward finds them in, and
// each is read in BFS order from its minimum node.
//
// One search finds the components before the first round; a merger then
// follows what each round changes instead of searching the whole graph
// again. TestConnectMatchesReference holds every round's picks, and so
// every world, to the loop that searched again each round.
func connect(x linkIndex, rng *des.RNG) error {
	m := newMerger(x)
	for guard := 0; guard < x.nw.NumNodes()+10 && len(m.comps) > 1; guard++ {
		m.round(rng)
	}
	if len(m.comps) > 1 {
		return ErrDegreeSequence
	}
	return nil
}

// merger follows the components of a network through connect's rounds.
// A component is named by its minimum node; by name it keeps the node
// count, the link count and, while the component is as the first search
// found it, where that search's BFS order holds it. A component a round
// changed is read by a new search when it is next the smaller of a pair.
// The component being grown, big, keeps its BFS order as a prefix that
// the round's draws extend only as far as they read (lazyBFS).
//
// Every buffer is carved from one slab at the start, so the rounds
// allocate nothing. Node IDs, counts and positions are held as int32,
// which halves the slab: a build that needs no round still pays for it.
type merger struct {
	x     linkIndex
	order []int32 // the first search's BFS orders, component after component
	start []int32 // by name: the component's first index in order, or -1 once a round changed it
	size  []int32 // by name: node count
	links []int32 // by name: link count
	comps []int32 // the names, ascending
	big   lazyBFS
	mark  []int32 // by node: the stamp of the last search that reached it
	stamp int32
	buf   []int32 // one round's scratch: the ranking, other's BFS order, then cut's queues
}

// mergerBuffers is how many node-sized buffers a merger carves.
const mergerBuffers = 10

// newMerger finds the components of x's network, each in BFS order from
// its minimum node, as components.find does before it sorts them.
func newMerger(x linkIndex) merger {
	n := x.nw.NumNodes()
	slab := make([]int32, mergerBuffers*n)
	carve := func() []int32 {
		b := slab[:n:n]
		slab = slab[n:]
		return b
	}
	m := merger{x: x, order: carve()[:0], start: carve(), size: carve(), links: carve(),
		comps: carve()[:0], mark: carve(), buf: carve(), stamp: 1}
	m.big = lazyBFS{root: -1, order: carve(), tail: carve(), pos: carve()}
	for v := range m.big.pos {
		m.big.pos[v] = -1
	}
	for v := range n {
		if m.mark[v] == m.stamp {
			continue
		}
		first := len(m.order)
		m.order = m.bfs(m.order, v)
		m.comps = append(m.comps, int32(v))
		m.start[v], m.size[v] = int32(first), int32(len(m.order)-first)
		m.links[v] = int32(linksOf(x, m.order[first:]))
	}
	return m
}

// bfs appends the BFS order of v's component from v to q, marking every
// node it reaches with the current stamp, which v must not carry yet.
func (m *merger) bfs(q []int32, v int) []int32 {
	m.mark[v] = m.stamp
	q = append(q, int32(v))
	for head := len(q) - 1; head < len(q); head++ {
		for _, nb := range m.x.nw.adj[q[head]] {
			if m.mark[nb.ID] != m.stamp {
				m.mark[nb.ID] = m.stamp
				q = append(q, int32(nb.ID))
			}
		}
	}
	return q
}

// nodes returns component c's nodes in BFS order from c: the first
// search's while c is as it found it, else a new search's in buf.
func (m *merger) nodes(c int) []int32 {
	if s := int(m.start[c]); s >= 0 {
		return m.order[s : s+int(m.size[c])]
	}
	m.stamp++
	return m.bfs(m.buf[:0], c)
}

// round merges the second-largest component (other) into the largest
// (main), which big then holds. It prefers the degree-preserving swap
// (a,b)+(c,d) -> (a,c)+(b,d) with (a,b) in main and (c,d) in other; if
// either has no links (an isolated node), it adds one link. A component
// is closed under adjacency, so a member's links to higher-numbered nodes
// are exactly its links within the component, and no node of main is
// linked to one of other: the first pick always serves.
func (m *merger) round(rng *des.RNG) {
	// The sort's moves depend only on its comparisons, so ranking names by
	// size ties equal sizes as components.find's sort of spans does.
	ranked := append(m.buf[:0], m.comps...)
	slices.SortFunc(ranked, func(a, b int32) int { return int(m.size[b]) - int(m.size[a]) })
	main, other := int(ranked[0]), int(ranked[1])
	if m.big.root != main {
		m.big.reset(main)
	}
	x, adj := m.x, m.x.nw.adj
	others := m.nodes(other)
	mainLinks, otherLinks := int(m.links[main]), int(m.links[other])
	if otherLinks == 0 || mainLinks == 0 {
		// Isolated node or edgeless component: attach it directly.
		a := int(others[rng.Intn(len(others))])
		b := m.big.at(adj, rng.Intn(int(m.size[main])))
		x.add(a, b)
		m.big.changed(b, b)
		m.join(main, other, 1)
		return
	}
	l1 := m.big.linkIn(x, rng.Intn(mainLinks))
	l2 := linkOf(x, others, rng.Intn(otherLinks))
	a, b, c, d := l1.A, l1.B, l2.A, l2.B
	x.remove(a, b)
	x.remove(c, d)
	x.add(a, c)
	x.add(b, d)
	m.big.changed(a, b)
	m.join(main, other, 0)
	m.split(a, b)
}

// join records other merged into main with extra more links than the two
// held. The union takes the smaller name, and big follows it: when other
// holds the smaller, big's root moves and its prefix goes.
func (m *merger) join(main, other, extra int) {
	name, gone := main, other
	if other < main {
		name, gone = other, main
	}
	m.size[name] = m.size[main] + m.size[other]
	m.links[name] = m.links[main] + m.links[other] + int32(extra)
	m.start[name] = -1
	i, _ := slices.BinarySearch(m.comps, int32(gone))
	m.comps = slices.Delete(m.comps, i, i+1)
	if m.big.root != name {
		m.big.reset(name)
	}
}

// split records the piece that a swap which cut a–b and c–d broke off
// big's component, if it broke one off: that happens only when both cut
// links were bridges, and then a and b end in different pieces. The piece
// that does not hold big's root becomes a component of its own; big's
// prefix, truncated already, lies wholly in the piece with the root.
func (m *merger) split(a, b int) {
	side, ok := m.cut(a, b)
	if !ok {
		return
	}
	root := m.big.root
	name := int(slices.Min(side))
	if name == root {
		// The root, the least node of the two pieces, is in the piece cut
		// searched out; the other piece lies behind the other endpoint.
		far := a
		if m.mark[a] == m.mark[side[0]] {
			far = b
		}
		m.stamp++
		side = m.bfs(m.buf[:0], far)
		name = int(slices.Min(side))
	}
	size, links := int32(len(side)), int32(linksOf(m.x, side))
	m.size[root] -= size
	m.links[root] -= links
	m.size[name], m.links[name], m.start[name] = size, links, -1
	i, _ := slices.BinarySearch(m.comps, int32(name))
	m.comps = slices.Insert(m.comps, i, int32(name))
}

// cut searches from a and b at once, one scanned node a side in turn. If
// the searches meet, a and b are still joined and cut reports false; if
// one runs out first, it has searched a whole component, whose nodes it
// returns. The two queues share buf from either end: no node is in both,
// so together they fit.
func (m *merger) cut(a, b int) ([]int32, bool) {
	adj, mark, buf := m.x.nw.adj, m.mark, m.buf
	sa, sb := m.stamp+1, m.stamp+2
	m.stamp += 2
	last := len(buf) - 1
	mark[a], mark[b] = sa, sb
	buf[0], buf[last] = int32(a), int32(b)
	na, nb := 1, 1 // a's queue is buf[:na]; b's is buf[last-nb+1:], read from the end
	for ha, hb := 0, 0; ; ha, hb = ha+1, hb+1 {
		if ha == na {
			return buf[:na], true
		}
		for _, w := range adj[buf[ha]] {
			switch mark[w.ID] {
			case sb:
				return nil, false
			case sa:
			default:
				mark[w.ID] = sa
				buf[na] = int32(w.ID)
				na++
			}
		}
		if hb == nb {
			return buf[last-nb+1:], true
		}
		for _, w := range adj[buf[last-hb]] {
			switch mark[w.ID] {
			case sa:
				return nil, false
			case sb:
			default:
				mark[w.ID] = sb
				buf[last-nb] = int32(w.ID)
				nb++
			}
		}
	}
}

// lazyBFS is a BFS order from root over the current adjacency, built only
// as far as it has been read: order[:n] is enqueued and order[:head]
// scanned. A change to a node's adjacency leaves everything enqueued
// before that node was scanned as it was, so changed keeps that much.
type lazyBFS struct {
	root    int // -1 before the first reset
	order   []int32
	n, head int
	tail    []int32 // tail[i] is n when order[i] was scanned
	pos     []int32 // by node: its index in order, or -1
}

// reset empties the order and starts it again from root.
func (q *lazyBFS) reset(root int) {
	for _, v := range q.order[:q.n] {
		q.pos[v] = -1
	}
	q.root, q.order[0], q.pos[root], q.n, q.head = root, int32(root), 0, 1, 0
}

// scan scans the next node, enqueueing its neighbors not yet enqueued.
func (q *lazyBFS) scan(adj [][]Neighbor) {
	if q.head == q.n {
		panic("topology: BFS read past the end of its component")
	}
	q.tail[q.head] = int32(q.n)
	for _, nb := range adj[q.order[q.head]] {
		if q.pos[nb.ID] < 0 {
			q.pos[nb.ID] = int32(q.n)
			q.order[q.n] = int32(nb.ID)
			q.n++
		}
	}
	q.head++
}

// at returns order[i], scanning until node i is enqueued. i must be less
// than the size of root's component.
func (q *lazyBFS) at(adj [][]Neighbor, i int) int {
	for q.n <= i {
		q.scan(adj)
	}
	return int(q.order[i])
}

// linkIn returns what linkOf over the whole order would for k, which must
// be less than the component's link count, scanning only as far as link k.
func (q *lazyBFS) linkIn(x linkIndex, k int) Neighbor2 {
	for i := 0; ; i++ {
		v := q.at(x.nw.adj, i)
		up := int(x.up[v])
		if k < up {
			return x.upper(v, k)
		}
		k -= up
	}
}

// changed drops what a change to the adjacency of u and v invalidates:
// everything enqueued from the first of them that was scanned on. A node
// not yet scanned is read with its new adjacency when it is.
func (q *lazyBFS) changed(u, v int) {
	j := q.head
	for _, w := range [2]int{u, v} {
		if p := int(q.pos[w]); p >= 0 && p < j {
			j = p
		}
	}
	if j == q.head {
		return
	}
	keep := int(q.tail[j])
	for _, w := range q.order[keep:q.n] {
		q.pos[w] = -1
	}
	q.n, q.head = keep, j
}

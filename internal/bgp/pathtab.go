package bgp

import (
	"math"
	"math/bits"
)

// routeRef is the identity of an interned AS path: an index+1 into the
// Simulator's pathTab, with 0 meaning "no route". Interning is
// hash-consed, so within one table equal paths have equal refs and
// unequal paths unequal refs; every route comparison in the simulator is
// a ref compare. All per-destination route storage (Adj-RIB-In, Loc-RIB,
// advertised bookkeeping) and every in-flight Update hold 4-byte refs —
// the compact representation that keeps multi-prefix tables
// (ndests = ASes × PrefixesPerOrigin) affordable.
type routeRef uint32

// emptyRef is the interned empty path — the Loc-RIB payload of every
// locally originated route. reset registers it first, so it is the same
// ref in every table and every trial.
const emptyRef routeRef = 1

// pathNode is one interned path as a parent-pointer trie node: the path
// is head followed by the parent's path. Every announcement path the
// simulator builds is prepend(as, parent) for a path it already holds,
// so a node is all a new path costs: 20 pointer-free bytes, whatever its
// length. A node a sweep freed has parent 0, which no other node but
// the empty path has.
type pathNode struct {
	mask   [2]uint32 // Bloom mask of the ASes on the path: bit as&63 per hop (two words: 4-byte alignment)
	hl     uint32    // head AS << 8 | min(hops, maxLen8)
	parent routeRef  // the rest of the path; 0 only for the empty path and free nodes
	// fwd is the node's one spare word: the next ref in the node's index
	// bucket while it is registered, the next free node once a sweep has
	// released it; 0 ends either chain.
	fwd routeRef
}

// A node's hop count saturates at maxLen8 (len walks the longer paths),
// which leaves hl 24 bits for AS numbers up to maxASN.
const maxLen8, maxASN = 1<<8 - 1, 1<<24 - 1

// Chunk sizing: node storage is a list of chunks that double from
// 1<<chunkMinShift nodes up to 1<<chunkMaxShift and stay there. Small
// first chunks keep a 30-node trial from paying for a 500-AS table, the
// cap bounds the slack in the last chunk, and since a full chunk is
// never copied, growth costs exactly the new chunk.
const (
	chunkMinShift = 6
	chunkMaxShift = 12
)

// indexMinShift sizes the index's first segment, 1<<indexMinShift
// buckets.
const indexMinShift = 6

// maxPaths bounds the table so the chunk arithmetic in locate cannot
// wrap. A table this full holds ~100 GB of nodes.
const maxPaths = math.MaxUint32 - 1<<chunkMinShift

// pathTab interns the paths a simulation creates. Prefixes from one
// origin AS carry identical AS paths through the network and therefore
// share the same nodes — path storage scales with distinct paths
// (topology-sized), not with destinations (topology × PrefixesPerOrigin).
//
// Nodes and bucket heads hold no pointers, so the collector never scans
// them. The table is single-threaded under its Simulator.
type pathTab struct {
	chunks [][]pathNode
	n      uint32   // nodes ever handed out; refs 1..n are valid, registered or free
	used   uint32   // registered nodes: n less the free chain
	free   routeRef // the free chain's head, threaded through fwd; 0 when empty

	// heads is the chained (head, parent) -> ref index behind prepend:
	// bucket b names the newest node whose key hashes to b, and the
	// chain runs on through pathNode.fwd, so the index stores no keys and
	// nothing per path. Buckets live in segments of 1<<indexMinShift,
	// then that many again, then double that, ... so doubling the bucket
	// count (a power of two, at least half the path count) allocates the
	// new half and, like a chunk, never copies or frees the old one.
	heads    [][]routeRef
	nbuckets uint32

	marks bitset // reusable live-ref marks for the sweeps (see Simulator.sweep)
}

// locate maps a ref to its chunk and offset.
func locate(ref routeRef) (chunk, off uint32) {
	j := uint32(ref) - 1 + 1<<chunkMinShift
	if j < 1<<(chunkMaxShift+1) {
		s := uint32(bits.Len32(j)) - 1
		return s - chunkMinShift, j &^ (1 << s)
	}
	return j>>chunkMaxShift + (chunkMaxShift - chunkMinShift - 1), j & (1<<chunkMaxShift - 1)
}

// node returns the node for ref, which must be in 1..n.
func (t *pathTab) node(ref routeRef) *pathNode {
	c, off := locate(ref)
	return &t.chunks[c][off]
}

// reset forgets every registration for a new trial and re-registers the
// empty path. Chunks and bucket segments are retained (the buckets
// emptied), so a pooled simulator's steady-state trials re-register
// without allocating. Only legal when no live routeRefs remain — i.e.
// from Simulator.Reset, after the engine is drained and before routers
// re-populate their RIBs.
func (t *pathTab) reset() {
	t.n, t.used, t.free = 0, 0, 0
	if t.heads == nil {
		t.heads = [][]routeRef{make([]routeRef, 1<<indexMinShift)}
		t.nbuckets = 1 << indexMinShift
	}
	t.relink()
	_, nd := t.alloc()
	*nd = pathNode{}
}

// size returns the number of registered paths.
func (t *pathTab) size() int { return int(t.used) }

// alloc registers one more node and returns it, uninitialized: the head
// of the free chain if a sweep left one, else the next never-used ref.
func (t *pathTab) alloc() (routeRef, *pathNode) {
	t.used++
	if ref := t.free; ref != 0 {
		nd := t.node(ref)
		t.free = nd.fwd
		return ref, nd
	}
	if t.n >= maxPaths {
		// Invariant: unreachable in practice; the table would hold ~100 GB
		// of nodes, and sweep reclaims dead paths long before.
		panic("bgp: path table full")
	}
	t.n++
	c, off := locate(routeRef(t.n))
	if int(c) == len(t.chunks) {
		t.chunks = append(t.chunks, make([]pathNode, 1<<min(chunkMinShift+int(c), chunkMaxShift)))
	}
	return routeRef(t.n), &t.chunks[c][off]
}

// bucket returns the chain head (head, parent) hashes to: the low bits
// of the upper half of a Fibonacci product. A bucket count that doubles
// in place must take its next bit from above the ones it has, and every
// bit of parent and the low bits of head are mixed into these.
func (t *pathTab) bucket(head uint32, parent routeRef) *routeRef {
	key := uint64(head)<<32 | uint64(parent)
	b := uint32((key*0x9E3779B97F4A7C15)>>32) & (t.nbuckets - 1)
	s := bits.Len32(b >> indexMinShift) // segment; its first bucket is b's top bit
	if s == 0 {
		return &t.heads[0][b]
	}
	return &t.heads[s][b&^(1<<(s+indexMinShift-1))]
}

// relink rebuilds every chain from the registered nodes, skipping the
// free ones.
func (t *pathTab) relink() {
	for _, seg := range t.heads {
		clear(seg)
	}
	for ref := emptyRef + 1; ref <= routeRef(t.n); ref++ {
		if nd := t.node(ref); nd.parent != 0 {
			b := t.bucket(nd.hl>>8, nd.parent)
			nd.fwd, *b = *b, ref
		}
	}
}

// prepend returns the ref of the path "as, then parent's path",
// registering it on first use. Re-deriving the same announcement — every
// prefix of an origin, every MRAI retry, every peer — is an index hit.
func (t *pathTab) prepend(as ASN, parent routeRef) routeRef {
	head := uint32(as)
	b := t.bucket(head, parent)
	for ref := *b; ref != 0; {
		nd := t.node(ref)
		if nd.hl>>8 == head && nd.parent == parent {
			return ref
		}
		ref = nd.fwd
	}
	p := t.node(parent)
	mask, hl := p.mask, head<<8|min(p.hl&maxLen8+1, maxLen8)
	mask[head>>5&1] |= 1 << (head & 31)
	ref, nd := t.alloc()
	*nd = pathNode{mask: mask, hl: hl, parent: parent, fwd: *b}
	*b = ref
	if t.used > 2*t.nbuckets && t.nbuckets < 1<<31 { // the bucket count stops at 2^31; chains just grow
		t.heads = append(t.heads, make([]routeRef, t.nbuckets))
		t.nbuckets *= 2
		t.relink()
	}
	return ref
}

// intern returns the ref of a path given as a slice (nil maps to 0, "no
// route") by folding prepend from the tail, so a path that did not come
// from this table's own derivations lands on the same ref as one that
// did.
func (t *pathTab) intern(p Path) routeRef {
	if p == nil {
		return 0
	}
	ref := emptyRef
	for i := len(p) - 1; i >= 0; i-- {
		ref = t.prepend(p[i], ref)
	}
	return ref
}

// path materializes ref's path as a fresh slice; nil for the zero ref,
// empty and non-nil for the empty path. For the edges that want slices
// (LocPath, tests, analysis); the simulation itself never calls it.
func (t *pathTab) path(ref routeRef) Path {
	if ref == 0 {
		return nil
	}
	p := make(Path, t.len(ref))
	for i := range p {
		nd := t.node(ref)
		p[i], ref = ASN(nd.hl>>8), nd.parent
	}
	return p
}

// len returns the hop count of ref's path, which must be nonzero.
func (t *pathTab) len(ref routeRef) int {
	n := 0
	for nd := t.node(ref); ; nd, n = t.node(nd.parent), n+1 {
		if l := int(nd.hl & maxLen8); l < maxLen8 {
			return n + l
		}
	}
}

// contains reports whether as is on ref's path. A node's mask covers the
// path from that node on, so a clear bit proves absence from the rest:
// loop and export checks skip the parent walk for almost every route and
// leave it early on most others.
func (t *pathTab) contains(ref routeRef, as ASN) bool {
	if ref == 0 {
		return false
	}
	head := uint32(as)
	w, bit := head>>5&1, uint32(1)<<(head&31)
	// The empty path's mask is zero, so the walk ends at the root.
	for nd := t.node(ref); nd.mask[w]&bit != 0; nd = t.node(nd.parent) {
		if nd.hl>>8 == head {
			return true
		}
	}
	return false
}

// clearMarks empties the mark set, sized like every other buffer: for
// what the chunks can hold, not for the paths registered right now, so it
// is reallocated only when the table has gained a chunk and a pooled
// simulator's later trials sweep without allocating.
func (t *pathTab) clearMarks() {
	held := 0
	for _, c := range t.chunks {
		held += len(c)
	}
	t.marks = fit(t.marks, (held+64)/64)
	t.marks.clearAll()
}

// mark adds ref to the mark set; the zero ref ("no route") is nobody's
// path and is skipped.
func (t *pathTab) mark(p *routeRef) {
	if *p != 0 {
		t.marks.set(int(*p))
	}
}

// markColumn marks every ref in a RIB column (0 = empty cell).
func (t *pathTab) markColumn(refs []routeRef) {
	for _, ref := range refs {
		if ref != 0 {
			t.marks.set(int(ref))
		}
	}
}

// closeMarks extends the mark set from the refs held outside the table
// to everything a sweep must keep — a marked path keeps its ancestors,
// because its node names its parent — and returns how many nodes that is.
// A node registered into a freed hole can sit below its parent, so each
// marked node walks up until it meets a marked ancestor: every node is
// marked at most once, and one pass reaches them all.
func (t *pathTab) closeMarks() int {
	t.marks.set(int(emptyRef))
	for ref := emptyRef + 1; ref <= routeRef(t.n); ref++ {
		if !t.marks.has(int(ref)) {
			continue
		}
		for p := t.node(ref).parent; !t.marks.has(int(p)); p = t.node(p).parent {
			t.marks.set(int(p))
		}
	}
	return t.marks.count()
}

// release frees every unmarked node in place. The exploration storm of a
// large failure walks every router through orders of magnitude more
// paths than it ends up holding; at 500 ASes × 1000 prefixes the dead
// fraction is GB-scale. The caller has marked every routeRef held
// anywhere outside the table and closed the set over ancestors
// (closeMarks). Nothing moves, so no holder is rewritten: the dead nodes
// go onto the free chain, lowest ref first, for alloc to hand out again,
// and the index is rebuilt over the survivors. Because freed refs are
// reused, a ref kept anywhere the roots do not reach would come to name
// another path: no routeRef in a Go local across the call (see
// Simulator.sweep for the roots and the safe point).
func (t *pathTab) release(live int) {
	t.free = 0
	for ref := routeRef(t.n); ref > emptyRef; ref-- {
		if !t.marks.has(int(ref)) {
			*t.node(ref) = pathNode{fwd: t.free}
			t.free = ref
		}
	}
	t.used = uint32(live)
	t.relink()
}

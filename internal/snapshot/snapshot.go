// Package snapshot computes the converged routing state of a topology
// directly — no events — by rounds of relaxation over flat per-node
// arrays, one destination AS at a time: the matrix-style formulation of
// BGP route selection. It implements exactly the decision and export
// semantics of the discrete-event simulator (internal/bgp): shortest AS
// path with the deterministic tie-break in the policy-free
// configuration, and valley-free customer > peer > provider selection
// under a Gao–Rexford relationship annotation. The fixpoint it reaches
// is the state the DES quiesces in, which makes the package usable
// three ways:
//
//   - as the simulator's start: a bgp.Simulator owns a Solver and
//     installs its fixpoint, one destination AS at a time, as the
//     converged state every trial begins from at failure injection;
//   - as a differential oracle (Compute): its routes must equal the
//     DES's, both after the event-simulated initial convergence the
//     bgp tests keep as a reference and after a failure storm, on the
//     surviving topology;
//   - as a scale mode (Stats, cmd/bgpsnap): converged-state statistics
//     at 10k+-AS sizes the event simulator cannot reach.
//
// Exactness argument. A node's stored route is a function of the
// neighbor it learned from (the from-pointer); candidate generation
// replicates the simulator's export rules (split horizon, the IBGP
// no-relay rule, Gao–Rexford export filtering, AS-loop suppression) and
// selection replicates its strict total order. Any fixpoint of the
// synchronous relaxation has acyclic from-chains — split horizon kills
// two-cycles, the no-relay rule caps internal chains at one hop, and
// every external hop strictly grows the path — so a fixpoint satisfies
// the simulator's quiescence equations exactly. Shortest-path ranking
// and the acyclic provider hierarchies both in-tree annotators produce
// (strictly decreasing degree, or strictly decreasing BFS level, along
// provider→customer edges) guarantee the iteration converges to the
// unique such fixpoint; a generous round cap turns any violation of
// those preconditions into an error instead of a hang.
package snapshot

import (
	"cmp"
	"fmt"
	"slices"

	"bgpsim/internal/topology"
)

// From-pointer sentinels; real values are node IDs (>= 0).
const (
	// FromNone marks a (node, AS) pair with no converged route.
	FromNone int32 = -1
	// FromSelf marks the origin node of the AS (locally originated).
	FromSelf int32 = -2
)

// Config parameterizes a snapshot computation.
type Config struct {
	// Policy enables Gao–Rexford valley-free selection and export under
	// the given relationship annotation; nil selects the paper's
	// policy-free shortest-path configuration. The same annotation must
	// be handed to the DES (bgp.Params.Policy) for the two backends to
	// agree — see topology.Spec.Relationships for carrying one
	// annotation to both.
	Policy *topology.Relationships

	// MaxRounds caps the relaxation sweeps per destination AS (0 means
	// an automatic cap of 4·nodes+16). Exceeding it returns an error —
	// it means the preference system has no unique fixpoint, which the
	// in-tree relationship annotators cannot produce.
	MaxRounds int
}

// nbr is one precomputed directed adjacency: everything candidate
// evaluation needs without a map lookup.
type nbr struct {
	node     int32
	as       int32
	internal bool
	// cls is the route class at the owning node for routes learned from
	// this neighbor (topology.Relationships.Class; 0 on internal links
	// and without policy) — bgp's Peer.Class.
	cls uint8
	// expOK reports whether the neighbor may export its peer- and
	// provider-learned routes to the owner (the owner is the neighbor's
	// customer, or the link is unannotated) — the Gao–Rexford export
	// rule evaluated once per directed edge.
	expOK bool
}

// world is the precomputed view of (network, policy) every per-AS
// relaxation shares. Its arrays are refitted, not reallocated, when a
// Solver is bound to another network.
type world struct {
	n  int
	as []int32 // node -> AS number
	// adj lists each node's neighbors sorted by node ID — the
	// simulator's peer slot order, which the tie-break depends on —
	// node i's at adj[off[i]:off[i+1]].
	adj    []nbr
	off    []int32
	origin []int32 // dense per AS: originating node (lowest ID), -1 none
	maxAS  int
}

// fit returns s resized to n, reusing its storage when it is large
// enough. The contents are unspecified; callers overwrite them.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func (w *world) bind(net *topology.Network, pol *topology.Relationships) {
	n := net.NumNodes()
	w.n = n
	w.as = fit(w.as, n)
	w.maxAS = 0
	for i := 0; i < n; i++ {
		as := net.ASOf(i)
		w.as[i] = int32(as)
		w.maxAS = max(w.maxAS, as)
	}
	w.origin = fit(w.origin, w.maxAS+1)
	for i := range w.origin {
		w.origin[i] = -1
	}
	for i := 0; i < n; i++ {
		if as := w.as[i]; w.origin[as] < 0 {
			w.origin[as] = int32(i) // ascending IDs: the first is the lowest
		}
	}
	w.off = fit(w.off, n+1)
	w.adj = w.adj[:0]
	for i := 0; i < n; i++ {
		w.off[i] = int32(len(w.adj))
		for _, a := range net.Neighbors(i) {
			e := nbr{node: int32(a.ID), as: w.as[a.ID], internal: a.Internal, expOK: true}
			if !a.Internal {
				e.cls, e.expOK = pol.Class(i, a.ID), pol.Class(a.ID, i) == 0
			}
			w.adj = append(w.adj, e)
		}
		slices.SortFunc(w.adj[w.off[i]:], func(a, b nbr) int { return cmp.Compare(a.node, b.node) })
	}
	w.off[n] = int32(len(w.adj))
}

// nbrs returns node i's neighbors in slot order.
func (w *world) nbrs(i int) []nbr { return w.adj[w.off[i]:w.off[i+1]] }

// originOf returns the node originating AS as's prefixes: the AS's
// lowest-numbered node, as in the simulator.
func (w *world) originOf(as int) (int, bool) {
	if as < 0 || as > w.maxAS || w.origin[as] < 0 {
		return 0, false
	}
	return int(w.origin[as]), true
}

// bfsOrder appends a breadth-first node order from src (all links, both
// directions) to buf, then any unreached nodes in ID order, so a sweep
// visits nodes roughly in the direction routes propagate.
func (w *world) bfsOrder(src int, buf []int32, seen []bool) []int32 {
	clear(seen)
	buf = buf[:0]
	buf = append(buf, int32(src))
	seen[src] = true
	for head := 0; head < len(buf); head++ {
		for _, e := range w.nbrs(int(buf[head])) {
			if !seen[e.node] {
				seen[e.node] = true
				buf = append(buf, e.node)
			}
		}
	}
	for i := 0; i < w.n; i++ {
		if !seen[i] {
			buf = append(buf, int32(i))
		}
	}
	return buf
}

// routes is one destination AS's per-node state: the from-pointer and
// the path facts derived along it. A Solver's working arrays and one
// AS's stripe of a Result are both routes.
type routes struct {
	from    []int32
	plen    []int32
	cls     []uint8
	fromInt []bool
	mask    []uint64
}

// chainContains reports whether AS x appears on the stored path of node
// q under rt's from-chains: the path is the sequence of from-node ASes
// prepended along external hops. Transient cycles (the walk not
// terminating within n steps) count as containing — the conservative
// answer only delays adoption during relaxation and cannot occur at a
// fixpoint, where chains are acyclic.
func (w *world) chainContains(rt routes, q int, x int32) bool {
	cur := q
	for steps := 0; steps <= w.n; steps++ {
		f := rt.from[cur]
		if f < 0 {
			return false
		}
		if !rt.fromInt[cur] && w.as[f] == x {
			return true
		}
		cur = int(f)
	}
	return true
}

// path reconstructs node's AS path under rt, nearest AS first.
func (w *world) path(rt routes, node int) ([]int, bool) {
	if rt.from[node] == FromNone {
		return nil, false
	}
	out := make([]int, 0, rt.plen[node])
	cur := node
	for {
		f := rt.from[cur]
		if f == FromSelf {
			return out, true
		}
		if f < 0 || len(out) > w.n {
			return nil, false // unreachable at a fixpoint
		}
		if !rt.fromInt[cur] {
			out = append(out, int(w.as[f]))
		}
		cur = int(f)
	}
}

// advertises reports whether, under rt, node q advertises the
// destination to its neighbor r — desiredAdvert's export rules. There is
// no receiver-side loop check to replicate: no update carries its
// receiver's AS (DESIGN.md, BGP invariants).
func (w *world) advertises(rt routes, q, r int) bool {
	fq := rt.from[q]
	if fq == FromNone {
		return false
	}
	list := w.nbrs(q)
	i, found := slices.BinarySearchFunc(list, int32(r), func(e nbr, t int32) int { return cmp.Compare(e.node, t) })
	if !found {
		return false
	}
	e := list[i]
	if fq >= 0 {
		if int(fq) == r {
			return false
		}
		if rt.fromInt[q] && e.internal {
			return false
		}
		if rt.cls[q] != 0 && e.cls != 0 {
			return false // Gao–Rexford: peer/provider routes only to customers
		}
	}
	// The sender's loop check, on external sessions: r's AS on the path.
	return e.internal || rt.mask[q]&(1<<(uint(w.as[r])&63)) == 0 || !w.chainContains(rt, q, w.as[r])
}

// Solver computes the converged state one destination AS at a time in
// arrays it keeps: Bind fits them to a network, Solve relaxes one AS
// into them, and From, FromInternal and Advertises read the AS solved
// last. Once the arrays have grown to the largest network seen, binding
// and solving allocate nothing, which is what lets a simulator own a
// Solver and install the fixpoint at the start of every trial. The zero
// value is ready to Bind.
type Solver struct {
	w         world
	rt        routes
	order     []int32
	seen      []bool
	maxRounds int
}

// Bind fits the solver to net under cfg. The network must not be empty,
// it must pass topology.Network.CheckSessions (Compute, Stats and
// bgp.Rebind check it), and neither it nor the policy may change while
// the solver is bound.
func (s *Solver) Bind(net *topology.Network, cfg Config) {
	s.w.bind(net, cfg.Policy)
	n := s.w.n
	s.rt.from = fit(s.rt.from, n)
	s.rt.plen = fit(s.rt.plen, n)
	s.rt.cls = fit(s.rt.cls, n)
	s.rt.fromInt = fit(s.rt.fromInt, n)
	s.rt.mask = fit(s.rt.mask, n)
	s.seen = fit(s.seen, n)
	s.maxRounds = cfg.maxRounds(n)
}

// MaxAS returns the highest AS number of the bound network.
func (s *Solver) MaxAS() int { return s.w.maxAS }

// Origin returns the node originating AS as's prefixes: the AS's
// lowest-numbered node, as in the simulator.
func (s *Solver) Origin(as int) (int, bool) { return s.w.originOf(as) }

// Solve computes the converged state for destination AS as, sweeping
// the nodes in breadth-first order from its origin until a full sweep
// changes nothing. It returns the number of sweeps, including the final
// quiet one, and an error when the AS originates nothing or the
// configured round cap is exceeded.
func (s *Solver) Solve(as int) (int, error) {
	origin, ok := s.Origin(as)
	if !ok {
		return 0, fmt.Errorf("snapshot: AS %d originates no prefix", as)
	}
	w, st := &s.w, s.rt
	for i := 0; i < w.n; i++ {
		st.from[i] = FromNone
		st.plen[i] = 0
		st.cls[i] = 0
		st.fromInt[i] = false
		st.mask[i] = 0
	}
	st.from[origin] = FromSelf
	s.order = w.bfsOrder(origin, s.order, s.seen)
	rounds := 0
	for {
		rounds++
		if rounds > s.maxRounds {
			return rounds, fmt.Errorf("snapshot: no fixpoint for origin node %d within %d rounds", origin, s.maxRounds)
		}
		changed := false
		for _, rv := range s.order {
			r := int(rv)
			if r == origin {
				continue // locally originated: never displaced
			}
			// Select the best candidate over the neighbor slots in slot
			// order — bgp's decide, with candidates generated by its
			// desiredAdvert export rules.
			var bPlen int32
			var bMask uint64
			var bCls uint8
			var bInt bool
			var bFrom int32 = FromNone
			var bPeerAS, bPeerNode int32
			for _, e := range w.nbrs(r) {
				q := int(e.node)
				fq := st.from[q]
				if fq == FromNone {
					continue
				}
				if fq >= 0 {
					if int(fq) == r {
						continue // split horizon / sender-side loop detection
					}
					if st.fromInt[q] && e.internal {
						continue // IBGP-learned routes are not relayed to IBGP peers
					}
					if st.cls[q] != 0 && !e.expOK {
						continue // Gao–Rexford: peer/provider routes only to customers
					}
				}
				var cPlen int32
				var cMask uint64
				var cInt bool
				if e.internal {
					cPlen, cMask, cInt = st.plen[q], st.mask[q], true
				} else {
					if st.mask[q]&(1<<(uint(w.as[r])&63)) != 0 && w.chainContains(st, q, w.as[r]) {
						continue // the local AS is already on the path
					}
					cPlen, cMask, cInt = st.plen[q]+1, st.mask[q]|1<<(uint(e.as)&63), false
				}
				cCls := e.cls
				if bFrom == FromNone || betterCand(cCls, cPlen, cInt, e.as, e.node, bCls, bPlen, bInt, bPeerAS, bPeerNode) {
					bFrom, bPlen, bMask, bCls, bInt = e.node, cPlen, cMask, cCls, cInt
					bPeerAS, bPeerNode = e.as, e.node
				}
			}
			if st.from[r] != bFrom || st.plen[r] != bPlen || st.cls[r] != bCls ||
				st.fromInt[r] != bInt || st.mask[r] != bMask {
				st.from[r], st.plen[r], st.cls[r] = bFrom, bPlen, bCls
				st.fromInt[r], st.mask[r] = bInt, bMask
				changed = true
			}
		}
		if !changed {
			return rounds, nil
		}
	}
}

// From returns node's converged from-pointer for the AS solved last:
// the neighbor node the best route was learned from, FromSelf at the
// origin, FromNone when no route exists.
func (s *Solver) From(node int) int32 { return s.rt.from[node] }

// FromInternal reports whether node's converged route for the AS solved
// last was learned over an internal (IBGP) session.
func (s *Solver) FromInternal(node int) bool { return s.rt.fromInt[node] }

// Advertises reports whether, at the fixpoint of the AS solved last,
// node q advertises the destination to its neighbor r — whether the
// simulator's quiescent Adj-RIB-In at r holds a route from q.
func (s *Solver) Advertises(q, r int) bool { return s.w.advertises(s.rt, q, r) }

// betterCand is bgp's betterRoute over the relaxation encoding: class,
// then path length, then EBGP over IBGP, then lowest peer AS, then
// lowest peer node ID. Strict — the caller keeps the earliest slot on
// ties, as decide does.
func betterCand(ca uint8, la int32, ia bool, asA, nA int32,
	cb uint8, lb int32, ib bool, asB, nB int32) bool {
	if ca != cb {
		return ca < cb
	}
	if la != lb {
		return la < lb
	}
	if ia != ib {
		return !ia
	}
	if asA != asB {
		return asA < asB
	}
	return nA < nB
}

func (c Config) maxRounds(n int) int {
	if c.MaxRounds > 0 {
		return c.MaxRounds
	}
	return 4*n + 16
}

// Result is a full converged-state snapshot: per (destination AS, node),
// the from-pointer and the derived path facts, in flat arrays indexed
// [asSlot·n + node]. Paths are implicit in the from-chains and
// reconstructed on demand (Path).
type Result struct {
	w      *world
	ases   []int   // origin AS numbers, ascending
	asSlot []int32 // dense per AS number: slot in ases, -1 none
	routes

	rounds int // max sweeps over all destination ASes
}

// Compute runs a Solver over every destination AS the topology
// originates and returns the full converged state.
func Compute(net *topology.Network, cfg Config) (*Result, error) {
	if net.NumNodes() == 0 {
		return nil, fmt.Errorf("snapshot: empty network")
	}
	if err := net.CheckSessions(); err != nil {
		return nil, err
	}
	s := new(Solver)
	s.Bind(net, cfg)
	n := s.w.n
	var ases []int
	for as, o := range s.w.origin {
		if o >= 0 {
			ases = append(ases, as)
		}
	}
	res := &Result{
		w:      &s.w,
		ases:   ases,
		asSlot: make([]int32, s.w.maxAS+1),
		routes: routes{
			from:    make([]int32, len(ases)*n),
			plen:    make([]int32, len(ases)*n),
			cls:     make([]uint8, len(ases)*n),
			fromInt: make([]bool, len(ases)*n),
			mask:    make([]uint64, len(ases)*n),
		},
	}
	for i := range res.asSlot {
		res.asSlot[i] = -1
	}
	for slot, as := range ases {
		res.asSlot[as] = int32(slot)
		rounds, err := s.Solve(as)
		if err != nil {
			return nil, err
		}
		res.rounds = max(res.rounds, rounds)
		base := slot * n
		copy(res.from[base:base+n], s.rt.from)
		copy(res.plen[base:base+n], s.rt.plen)
		copy(res.cls[base:base+n], s.rt.cls)
		copy(res.fromInt[base:base+n], s.rt.fromInt)
		copy(res.mask[base:base+n], s.rt.mask)
	}
	return res, nil
}

// Nodes returns the node count of the underlying network.
func (res *Result) Nodes() int { return res.w.n }

// ASes returns the destination AS numbers in ascending order.
func (res *Result) ASes() []int { return res.ases }

// Rounds returns the maximum relaxation sweep count over all
// destination ASes (including each destination's final quiet sweep).
func (res *Result) Rounds() int { return res.rounds }

// OriginOf returns the node originating AS as's prefixes.
func (res *Result) OriginOf(as int) (int, bool) { return res.w.originOf(as) }

// stripe returns AS as's per-node routes.
func (res *Result) stripe(as int) (routes, bool) {
	if as < 0 || as >= len(res.asSlot) || res.asSlot[as] < 0 {
		return routes{}, false
	}
	lo := int(res.asSlot[as]) * res.w.n
	hi := lo + res.w.n
	return routes{res.from[lo:hi], res.plen[lo:hi], res.cls[lo:hi], res.fromInt[lo:hi], res.mask[lo:hi]}, true
}

// From returns node's converged from-pointer for destination AS as:
// the neighbor node the best route was learned from, FromSelf at the
// origin, FromNone when no route exists.
func (res *Result) From(as, node int) int32 {
	rt, ok := res.stripe(as)
	if !ok {
		return FromNone
	}
	return rt.from[node]
}

// FromInternal reports whether node's converged route for as was
// learned over an internal (IBGP) session.
func (res *Result) FromInternal(as, node int) bool {
	rt, ok := res.stripe(as)
	return ok && rt.fromInt[node]
}

// PathLen returns the AS-path length of node's converged route for as
// (-1 when no route; 0 at the origin and for intra-AS routes).
func (res *Result) PathLen(as, node int) int {
	rt, ok := res.stripe(as)
	if !ok || rt.from[node] == FromNone {
		return -1
	}
	return int(rt.plen[node])
}

// Path reconstructs node's converged AS path for as, nearest AS first —
// the simulator's Loc-RIB representation. Returns (nil, false) when no
// route exists; the origin (and intra-AS learners) get a non-nil empty
// path.
func (res *Result) Path(as, node int) ([]int, bool) {
	rt, ok := res.stripe(as)
	if !ok {
		return nil, false
	}
	return res.w.path(rt, node)
}

// Advertises reports whether, at the fixpoint, node q advertises the
// as-destination to its neighbor r — i.e. whether the simulator's
// quiescent Adj-RIB-In at r holds a route from q. q and r must be
// adjacent.
func (res *Result) Advertises(as, q, r int) bool {
	rt, ok := res.stripe(as)
	return ok && res.w.advertises(rt, q, r)
}

// Summary aggregates converged-state statistics without retaining the
// per-AS arrays — the streaming form behind the 10k+-AS scale mode.
type Summary struct {
	Nodes int
	Links int
	ASes  int
	// Pairs is ASes × nodes (every potential routing-table entry);
	// Reachable counts the pairs holding a converged route.
	Pairs     int64
	Reachable int64
	// MaxRounds and MeanRounds describe the relaxation sweeps per
	// destination AS.
	MaxRounds  int
	MeanRounds float64
	// Path-length statistics over reachable pairs (external hops).
	MeanPathLen float64
	MaxPathLen  int
	// PathLenHist counts reachable pairs by path length; lengths at or
	// beyond the last bucket accumulate there.
	PathLenHist []int64
}

// histBuckets is the PathLenHist size (lengths 0..14, 15+ overflow).
const histBuckets = 16

// Stats computes converged-state statistics destination-by-destination
// on one Solver — O(nodes + links) memory regardless of AS count, which
// is what lets cmd/bgpsnap report on topologies far past the event
// simulator's reach.
func Stats(net *topology.Network, cfg Config) (Summary, error) {
	if net.NumNodes() == 0 {
		return Summary{}, fmt.Errorf("snapshot: empty network")
	}
	if err := net.CheckSessions(); err != nil {
		return Summary{}, err
	}
	s := new(Solver)
	s.Bind(net, cfg)
	n := s.w.n
	sum := Summary{
		Nodes:       n,
		Links:       net.NumLinks(),
		PathLenHist: make([]int64, histBuckets),
	}
	var roundsTotal int64
	var plenTotal int64
	for as := 0; as <= s.w.maxAS; as++ {
		if s.w.origin[as] < 0 {
			continue
		}
		sum.ASes++
		rounds, err := s.Solve(as)
		if err != nil {
			return Summary{}, err
		}
		roundsTotal += int64(rounds)
		sum.MaxRounds = max(sum.MaxRounds, rounds)
		sum.Pairs += int64(n)
		for i := 0; i < n; i++ {
			if s.rt.from[i] == FromNone {
				continue
			}
			sum.Reachable++
			l := int(s.rt.plen[i])
			plenTotal += int64(l)
			sum.MaxPathLen = max(sum.MaxPathLen, l)
			sum.PathLenHist[min(l, histBuckets-1)]++
		}
	}
	if sum.ASes > 0 {
		sum.MeanRounds = float64(roundsTotal) / float64(sum.ASes)
	}
	if sum.Reachable > 0 {
		sum.MeanPathLen = float64(plenTotal) / float64(sum.Reachable)
	}
	return sum, nil
}

package bgp

import (
	"fmt"

	"bgpsim/internal/snapshot"
)

// This file installs the snapshot fixpoint (internal/snapshot) as the
// simulator's initial converged state, the start of every trial. The
// install reproduces exactly the quiescent state event-driven initial
// convergence (the refColdStart reference) leaves behind, modulo
// routeRef numbering (refs are interned in install order rather than
// propagation order; a ref still names the same path everywhere in one
// table, and nothing orders by ref):
//
//   - Loc-RIB: the snapshot's converged best route per (router, dest),
//     with bestSlot pointing at the slot it was learned from (bestSelf
//     at the origin, which also sets the originates bit);
//   - Adj-RIB-In: a route from peer q exactly when q's quiescent export
//     rules advertise the destination to us (Solver.Advertises; the
//     receiver checks nothing, as no update carries its receiver's AS);
//   - advertised: mirror of the peer's Adj-RIB-In entry in our own ref
//     space, so the first post-failure flush sees the same "already
//     announced" state a cold run would;
//   - timers, pending bitsets, inboxes: empty/open, the quiescent state.
//
// Everything else a cold start leaves behind — MRAI gates and the
// dynamic-MRAI level, flap counters, damping history, load accounting,
// the random stream — is reset at window open by normalizeWindow in
// either start, so it is not installed. The collector's whole-run
// totals record one update per installed Adj-RIB-In route
// (Collector.NoteInstalled); no window is open yet.
//
// Path refs are derived through a memoized from-chain walk in the
// simulator's path table, so all prefixes of one origin AS share the same
// interned paths — the same sharing the event-driven run produces.

// invalidRef marks an uncomputed entry of the install's ref memo (0 is a
// valid "no route" value).
const invalidRef = ^routeRef(0)

// warmStart installs the converged state into every router, solving one
// destination AS at a time on the simulator's Solver and installing it
// before the next; no state for all ASes at once is ever built. The
// simulator must be freshly rebound (empty RIBs, time zero); afterwards
// the engine is still at time zero with no events pending, so the caller
// proceeds directly to failure scheduling.
func (s *Simulator) warmStart() error {
	sol := &s.snap
	installed := 0
	for as := 0; as <= sol.MaxAS(); as++ {
		origin, ok := sol.Origin(as)
		if !ok {
			continue
		}
		if _, err := sol.Solve(as); err != nil {
			return err
		}
		fill(s.warmRefs, invalidRef)
		n, err := s.installAS(as, origin)
		if err != nil {
			return err
		}
		installed += n
	}
	s.col.NoteInstalled(installed)
	return nil
}

// installAS installs the solved fixpoint of destination AS as,
// originated at node origin, into every router, and returns how many
// Adj-RIB-In routes it installed.
func (s *Simulator) installAS(as ASN, origin NodeID) (installed int, err error) {
	sol, tab := &s.snap, &s.tab
	destLo := as * s.nprefix
	for _, r := range s.routers {
		// Loc-RIB payload and provenance for this router.
		var locRef routeRef
		bs := bestNone
		if r.id == origin {
			locRef = emptyRef
			bs = bestSelf
		} else if f := sol.From(r.id); f >= 0 {
			locRef = s.chainRef(r.id)
			slot, ok := findPeer(r.peers, NodeID(f))
			if !ok {
				return 0, fmt.Errorf("bgp: node %d has no slot for snapshot from-node %d", r.id, f)
			}
			bs = int16(slot)
		}
		for pi := 0; pi < s.nprefix; pi++ {
			dest := destLo + pi
			if r.id == origin {
				r.decide.originates.set(dest)
			}
			if locRef != 0 {
				r.decide.loc.set(dest, locRef)
				r.decide.bestSlot[dest] = bs
			}
		}
		for slot := range r.peers {
			p := &r.peers[slot]
			// Inbound: peer q's quiescent advertisement to us.
			if sol.Advertises(p.Node, r.id) {
				inRef := s.chainRef(p.Node)
				if inRef != 0 && !p.Internal {
					inRef = tab.prepend(p.AS, inRef)
				}
				if inRef != 0 {
					for pi := 0; pi < s.nprefix; pi++ {
						r.receive.adjIn.setSlot(slot, destLo+pi, inRef)
					}
					installed += s.nprefix
				}
			}
			// Outbound: our quiescent advertisement to peer q.
			if locRef != 0 && sol.Advertises(r.id, p.Node) {
				advRef := locRef
				if !p.Internal {
					advRef = tab.prepend(r.as, locRef)
				}
				for pi := 0; pi < s.nprefix; pi++ {
					r.flush.advertised[slot].set(destLo+pi, advRef, &s.spare)
				}
			}
		}
	}
	return installed, nil
}

// chainRef interns node's converged Loc-RIB path for the AS solved last
// by walking its from-chain: the origin holds the empty path, internal
// hops share the upstream path, external hops prepend the upstream
// node's AS — precisely how the event-driven run derives and interns
// the same paths. The walk climbs to the first node whose ref is known,
// then interns on the way back down, memoizing every node it passes in
// warmRefs. A chain that runs into itself (impossible at a fixpoint)
// reads as no route.
func (s *Simulator) chainRef(node NodeID) routeRef {
	sol, memo := &s.snap, s.warmRefs
	chain := s.warmChain[:0]
	cur := node
	for memo[cur] == invalidRef {
		f := sol.From(cur)
		if f < 0 {
			memo[cur] = 0
			if f == snapshot.FromSelf {
				memo[cur] = emptyRef
			}
			break
		}
		memo[cur] = 0 // on the walk: a cycle back here ends as no route
		chain = append(chain, int32(cur))
		cur = int(f)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		n := int(chain[i])
		f := int(sol.From(n))
		ref := memo[f]
		if ref != 0 && !sol.FromInternal(n) {
			ref = s.tab.prepend(s.net.ASOf(f), ref)
		}
		memo[n] = ref
	}
	s.warmChain = chain
	return memo[node]
}

package bgp

import (
	"fmt"
	"sync"

	"bgpsim/internal/snapshot"
	"bgpsim/internal/topology"
)

// This file installs a snapshot-backend fixpoint (internal/snapshot) as
// the simulator's initial converged state — the Params.WarmStart path.
// The install reproduces exactly the quiescent state the event-driven
// phase 1 leaves behind, modulo routeRef numbering (refs are interned in
// install order rather than propagation order; a ref still names the
// same path everywhere in one table, and nothing orders by ref):
//
//   - Loc-RIB: the snapshot's converged best route per (router, dest),
//     with bestSlot pointing at the slot it was learned from (bestSelf
//     at the origin, which also sets the originates bit);
//   - Adj-RIB-In: a route from peer q exactly when q's quiescent export
//     rules advertise the destination to us (snapshot.Advertises — the
//     sender-side suppression subsumes the receiver-side loop drop);
//   - advertised: mirror of the peer's Adj-RIB-In entry in our own ref
//     space, so the first post-failure flush sees the same "already
//     announced" state a cold run would;
//   - timers, pending bitsets, inboxes: empty/open, the quiescent state.
//
// Path refs are derived through a memoized from-chain walk in the
// simulator's path table, so all prefixes of one origin AS share the same
// interned paths — the same sharing the event-driven run produces.

// snapKey identifies a cached snapshot: the topology and policy are
// compared by pointer, which the experiment layer's topology and
// relationship caches make stable across trials and sweep cells.
type snapKey struct {
	net *topology.Network
	pol *topology.Relationships
}

var snapCache = struct {
	sync.Mutex
	m map[snapKey]*snapshot.Result
}{m: make(map[snapKey]*snapshot.Result)}

// snapCacheCap bounds the process-wide snapshot cache. Sweeps touch a
// handful of (topology, policy) pairs; when the bound is hit the whole
// map is dropped — a full recompute costs milliseconds, an unbounded
// cache of 500-AS results costs real memory.
const snapCacheCap = 16

// snapshotFor returns the (possibly cached) converged snapshot for the
// pair. Callers must not mutate the network or policy while the cached
// result is live — the experiment layer's caches already require this.
func snapshotFor(net *topology.Network, pol *topology.Relationships) (*snapshot.Result, error) {
	key := snapKey{net, pol}
	snapCache.Lock()
	res := snapCache.m[key]
	snapCache.Unlock()
	if res != nil {
		return res, nil
	}
	res, err := snapshot.Compute(net, snapshot.Config{Policy: pol})
	if err != nil {
		return nil, err
	}
	snapCache.Lock()
	if len(snapCache.m) >= snapCacheCap {
		snapCache.m = make(map[snapKey]*snapshot.Result, snapCacheCap)
	}
	snapCache.m[key] = res
	snapCache.Unlock()
	return res, nil
}

// invalidRef marks an uncomputed memo entry in the warm-start ref
// derivation (0 is a valid "no route" value).
const invalidRef = ^routeRef(0)

// warmStart installs the converged snapshot into every router. The
// simulator must be freshly Reset (empty RIBs, time zero); afterwards the
// engine is still at time zero with no events pending, so the caller
// proceeds directly to failure scheduling.
func (s *Simulator) warmStart() error {
	res, err := snapshotFor(s.net, s.params.Policy)
	if err != nil {
		return err
	}
	tab := &s.tab
	memo := make([]routeRef, s.net.NumNodes())

	for _, as := range res.ASes() {
		fill(memo, invalidRef)
		// refFor interns node's converged loc path for this AS by walking
		// the from-chain: the origin holds the empty path, internal hops
		// share the upstream path, external hops prepend the upstream
		// node's AS — precisely how the event-driven run derives and
		// interns the same paths.
		var refFor func(node int) routeRef
		refFor = func(node int) routeRef {
			if got := memo[node]; got != invalidRef {
				return got
			}
			var ref routeRef
			switch f := res.From(as, node); {
			case f == snapshot.FromNone:
				ref = 0
			case f == snapshot.FromSelf:
				ref = emptyRef
			default:
				parent := refFor(int(f))
				if parent == 0 {
					ref = 0 // broken chain: treat as no route (cannot happen at a fixpoint)
				} else if res.FromInternal(as, node) {
					ref = parent
				} else {
					ref = tab.prepend(s.net.ASOf(int(f)), parent)
				}
			}
			memo[node] = ref
			return ref
		}

		origin, ok := res.OriginOf(as)
		if !ok {
			continue
		}
		destLo := as * s.nprefix
		for _, r := range s.routers {
			// Loc-RIB payload and provenance for this router.
			var locRef routeRef
			bs := bestNone
			if r.id == origin {
				locRef = emptyRef
				bs = bestSelf
			} else if f := res.From(as, r.id); f >= 0 {
				locRef = refFor(r.id)
				slot, ok := r.slotOf[NodeID(f)]
				if !ok {
					return fmt.Errorf("bgp: warm start: node %d has no slot for snapshot from-node %d", r.id, f)
				}
				bs = int16(slot)
			}
			for pi := 0; pi < s.nprefix; pi++ {
				dest := destLo + pi
				if r.id == origin {
					r.originates.set(dest)
				}
				if locRef != 0 {
					r.loc.set(dest, locRef)
					r.bestSlot[dest] = bs
				}
			}
			for slot := range r.peers {
				p := &r.peers[slot]
				// Inbound: peer q's quiescent advertisement to us.
				if res.Advertises(as, p.Node, r.id) {
					inRef := refFor(p.Node)
					if inRef != 0 && !p.Internal {
						inRef = tab.prepend(p.AS, inRef)
					}
					if inRef != 0 {
						for pi := 0; pi < s.nprefix; pi++ {
							r.adjIn.setSlot(slot, destLo+pi, inRef)
						}
					}
				}
				// Outbound: our quiescent advertisement to peer q.
				if locRef != 0 && res.Advertises(as, r.id, p.Node) {
					advRef := locRef
					if !p.Internal {
						advRef = tab.prepend(r.as, locRef)
					}
					for pi := 0; pi < s.nprefix; pi++ {
						r.advertised[slot].set(destLo+pi, advRef, r.ndests)
					}
				}
			}
		}
	}
	return nil
}

package bgp

import "math/bits"

// locEntry is a route, a (ref, slot) pair: the interned path and the
// slot of the peer it was learned from. The Loc-RIB stores the halves
// apart (locRIB.refs, decideStation.bestSlot). plen caches the path
// length for betterRoute's ranking; only routeVia's candidates carry it.
type locEntry struct {
	ref  routeRef // the path (never 0 for a real entry)
	plen int32    // tab.len(ref), where the entry is ranked
	slot int16    // the advertising peer's slot
}

// routeVia is the ranked candidate entry for the route ref learned from
// the peer at slot.
func (t *pathTab) routeVia(ref routeRef, slot int) locEntry {
	return locEntry{ref: ref, plen: int32(t.len(ref)), slot: int16(slot)}
}

// sameAs reports whether two entries are the same route: the same path
// from the same peer slot.
func (e locEntry) sameAs(o locEntry) bool {
	return e.ref == o.ref && e.slot == o.slot
}

// locRIB is the Loc-RIB in packed per-route encoding: parallel dense
// arrays of 4-byte interned path refs and 4-byte cached export refs,
// plus a presence bitset — 8 bytes and change per destination. The
// winner's peer slot is not stored here: decideStation.bestSlot records
// it (bestSelf for local routes) and is maintained on every Loc-RIB
// mutation.
//
// Presence must be tracked explicitly — ref 0 is a valid payload only
// for absent slots, while the interned empty path (a real locally
// originated route) has a nonzero ref.
type locRIB struct {
	refs    []routeRef // interned best path per dest; 0 in absent slots
	exports []routeRef // cached prepend(localAS, refs[dest]); 0 = not yet computed
	has     bitset
}

// getRef returns the interned best-path ref for dest.
func (l *locRIB) getRef(dest ASN) (routeRef, bool) {
	ref := l.refs[dest]
	return ref, ref != 0
}

// set installs ref as the entry for dest, invalidating the export cache.
func (l *locRIB) set(dest ASN, ref routeRef) {
	l.refs[dest] = ref
	l.exports[dest] = 0
	l.has.set(dest)
}

// del removes the entry for dest.
func (l *locRIB) del(dest ASN) {
	l.refs[dest] = 0
	l.exports[dest] = 0
	l.has.clear(dest)
}

// fit empties the RIB and dimensions it for ndests destinations, in the
// arrays it has when they are large enough.
func (l *locRIB) fit(ndests int) {
	if len(l.refs) == ndests {
		l.reset()
		return
	}
	l.refs = fit(l.refs, ndests)
	clear(l.refs)
	l.exports = fit(l.exports, ndests)
	clear(l.exports)
	l.has = l.has.fit(ndests)
}

// reset empties the RIB in O(occupied entries).
func (l *locRIB) reset() {
	for wi, w := range l.has {
		base := wi << 6
		for w != 0 {
			i := base + bits.TrailingZeros64(w)
			l.refs[i] = 0
			l.exports[i] = 0
			w &= w - 1
		}
		l.has[wi] = 0
	}
}

// refSlot is one peer's dense destination-indexed route column in the
// sparse-within-dense hybrid: the 4-byte interned ref per destination
// (0 = absent; real routes always have nonzero refs, so no separate
// presence bit is needed), allocated lazily on the first route stored —
// peers that never advertise (and advertisement columns never sent to)
// cost nothing. It backs both the per-peer Adj-RIB-In columns and the
// per-slot advertised-route bookkeeping of the flush station.
type refSlot struct {
	refs []routeRef
}

// get returns the stored ref for dest (0 when absent).
func (s *refSlot) get(dest ASN) routeRef {
	if s.refs == nil {
		return 0
	}
	return s.refs[dest]
}

// set records ref (which must be nonzero) for dest, materializing the
// column on first use from the simulator's spare columns.
func (s *refSlot) set(dest ASN, ref routeRef, spare *colPool) {
	if s.refs == nil {
		s.refs = spare.take()
	}
	s.refs[dest] = ref
}

// del removes the entry for dest, reporting whether one existed.
func (s *refSlot) del(dest ASN) bool {
	if s.refs == nil || s.refs[dest] == 0 {
		return false
	}
	s.refs[dest] = 0
	return true
}

// reset empties the column, retaining its storage.
func (s *refSlot) reset() {
	clear(s.refs)
}

// fit empties the column and dimensions it for ndests destinations. A
// column too small for that is released and re-materializes lazily at
// the new size, like one that was never stored to.
func (s *refSlot) fit(ndests int) {
	if cap(s.refs) < ndests {
		s.refs = nil
		return
	}
	s.refs = s.refs[:ndests]
	clear(s.refs)
}

// colPool holds a simulator's spare route columns: those router.rewire
// took from the slots past a router's new degree. A column is
// materialized from it before one is made, so a simulator rebound from
// world to world holds the columns of its busiest world, not every
// router's largest degree. It is per simulator because the simulators of
// a sweep run on separate goroutines.
type colPool struct {
	cols   [][]routeRef // each of at least ndests cells
	ndests int          // the column length of the current binding
}

// fit sets the column length for the coming run and drops every spare
// column too short for it, as refSlot.fit drops one.
func (p *colPool) fit(ndests int) {
	p.ndests = ndests
	kept := p.cols[:0]
	for _, col := range p.cols {
		if cap(col) >= ndests {
			kept = append(kept, col)
		}
	}
	clear(p.cols[len(kept):])
	p.cols = kept
}

// take returns an empty column of ndests cells: the newest spare one, or
// a new one. fit has dropped the short ones, so take has no loop and
// inlines without pushing set and adjRIBIn.setSlot, which run per update,
// past the inlining budget.
func (p *colPool) take() []routeRef {
	k := len(p.cols) - 1
	if k < 0 {
		return make([]routeRef, p.ndests)
	}
	col := p.cols[k][:p.ndests]
	p.cols[k] = nil
	p.cols = p.cols[:k]
	clear(col)
	return col
}

// refit is refit for a router's route columns: the columns of the slots
// past n go to the pool, so slots of a larger degree seen earlier wait in
// the spare capacity empty.
func (p *colPool) refit(slots []refSlot, n int) []refSlot {
	all := slots[:cap(slots)]
	for i := n; i < len(all); i++ {
		if all[i].refs != nil {
			p.cols = append(p.cols, all[i].refs)
			all[i].refs = nil
		}
	}
	return refit(slots, n)
}

// adjRIBIn stores, per peer slot, the latest route heard from that peer
// for each destination. No stored path holds the local AS: no update
// carries its receiver's AS (DESIGN.md, BGP invariants), so nothing is
// checked at insertion. Storage is a lazily materialized slot × dest
// ref array: destinations are dense small integers (dest =
// AS·PrefixesPerOrigin + i with dense AS numbering), so the dest index
// is used directly, and a slot's column exists only once the peer has
// advertised something.
type adjRIBIn struct {
	tab   *pathTab // shared with the owning Simulator
	spare *colPool // the owning Simulator's; sizes every new column
	slots []refSlot
}

// fit empties the table and dimensions its dest axis for ndests
// destinations, retaining the materialized columns that are large
// enough.
func (rib *adjRIBIn) fit(ndests int) {
	for i := range rib.slots {
		rib.slots[i].fit(ndests)
	}
}

// reset empties the table, retaining materialized columns.
func (rib *adjRIBIn) reset() {
	for i := range rib.slots {
		rib.slots[i].reset()
	}
}

// setSlot records ref as the latest route for dest from the peer slot.
func (rib *adjRIBIn) setSlot(slot int, dest ASN, ref routeRef) {
	rib.slots[slot].set(dest, ref, rib.spare)
}

// removeSlot deletes the route for dest from the peer slot, reporting
// whether one existed.
func (rib *adjRIBIn) removeSlot(slot int, dest ASN) bool {
	return rib.slots[slot].del(dest)
}

// getSlotRef returns the stored ref for (slot, dest); 0 when absent.
func (rib *adjRIBIn) getSlotRef(slot int, dest ASN) routeRef {
	return rib.slots[slot].get(dest)
}

// destsViaSlot appends the destinations with a route from the peer slot
// to buf in ascending (sorted) order and returns the extended slice.
func (rib *adjRIBIn) destsViaSlot(slot int, buf []ASN) []ASN {
	for dest, ref := range rib.slots[slot].refs {
		if ref != 0 {
			buf = append(buf, dest)
		}
	}
	return buf
}

// decide runs the decision process for dest over the candidate routes in
// the Adj-RIB-In: shortest AS path wins; ties break EBGP-over-IBGP, then
// lowest peer AS, then lowest peer node ID. Peers are scanned in slot
// order so the result is deterministic. The winner's slot is
// decideStation.bestSlot's entry for it, which lets the incremental
// decision path skip this scan entirely; the false return means no
// route exists.
//
// The paper's simulations select routes on path length alone with no
// policy; the deterministic tie-break stands in for SSFNet's router-ID
// tie-break. Under a Gao–Rexford policy, routes are ranked by the class
// of the session they were learned over first (Peer.Class: customer
// over peer over provider, the standard local-pref assignment) before
// path length.
func decide(rib *adjRIBIn, dest ASN, peers []Peer, peerAlive []bool, damp *damper) (locEntry, bool) {
	best := locEntry{}
	bestPeer := Peer{}
	found := false
	for slot, peer := range peers {
		if peerAlive != nil && !peerAlive[slot] {
			continue
		}
		ref := rib.getSlotRef(slot, dest)
		if ref == 0 {
			continue
		}
		if damp != nil && damp.isSuppressed(dest, peer.Node) {
			continue
		}
		cand := rib.tab.routeVia(ref, slot)
		if !found || betterRoute(cand, peer, best, bestPeer) {
			best, bestPeer, found = cand, peer, true
		}
	}
	return best, found
}

// betterRoute reports whether candidate a (via peer pa) beats b (via pb).
func betterRoute(a locEntry, pa Peer, b locEntry, pb Peer) bool {
	if pa.Class != pb.Class {
		return pa.Class < pb.Class // local-pref: customer > peer > provider
	}
	if a.plen != b.plen {
		return a.plen < b.plen
	}
	if pa.Internal != pb.Internal {
		return !pa.Internal // EBGP preferred over IBGP
	}
	if pa.AS != pb.AS {
		return pa.AS < pb.AS
	}
	return pa.Node < pb.Node
}

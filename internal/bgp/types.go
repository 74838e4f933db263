// Package bgp implements the BGP-4 path-vector model the paper simulates
// with SSFNet: per-destination route advertisement and withdrawal,
// Adj-RIB-In / Loc-RIB with a shortest-AS-path decision process, per-peer
// MRAI timers with RFC 1771 jitter, a serial CPU with configurable
// per-update processing delay, EBGP plus full-mesh IBGP for multi-router
// ASes, and the paper's batched update-processing scheme.
package bgp

import (
	"cmp"
	"slices"
	"time"
)

// ASN identifies an autonomous system; one prefix (destination) is
// originated per AS and identified by the originating ASN.
type ASN = int

// NodeID identifies a router.
type NodeID = int

// Path is an AS-level path to a destination, nearest AS first, as a
// slice. The empty path denotes an intra-AS (locally originated or
// IBGP-learned) route; nil denotes no route. The simulation holds paths
// as interned routeRefs (see pathTab); slices exist only at the edges
// that want them (Simulator.LocPath, tests, analysis).
type Path = []ASN

// Update is one route-level BGP message for one destination: an
// announcement of the path Ref names in the simulator's path table, or
// a withdrawal (Ref == 0). The sender is named by the session it came
// in on: Slot is the receiver's peer slot of the sending router (the
// sender's Peer.Back), so the receive path indexes its per-peer state
// directly and never maps a node id. Twelve pointer-free bytes, so the
// inbox cells and batch arrays that hold most of a storm's in-flight
// state are compact and never scanned by the collector. Rebind checks
// that every node id and destination index fits in 32 bits.
type Update struct {
	Slot int32    // the receiver's peer slot of the sending router
	Dest int32    // destination prefix index
	Ref  routeRef // announced path; 0 means withdrawal
}

// IsWithdrawal reports whether the update withdraws the route.
func (u Update) IsWithdrawal() bool { return u.Ref == 0 }

// Peer describes one BGP session endpoint from a router's point of view.
// A router's peers are sorted by node id; a peer's index in that list is
// its slot, the name every per-session array and every update uses. Its
// kind and route class are fixed when the session is wired (Rebind).
type Peer struct {
	Node     NodeID        // the peer router
	AS       ASN           // the peer's AS number
	Internal bool          // true for IBGP sessions, exactly those within one AS
	Class    uint8         // route class under Params.Policy (topology.Relationships.Class); 0 on IBGP
	Back     int32         // this router's slot at the peer: what updates sent on the session carry
	Delay    time.Duration // one-way propagation delay of the session link
}

// findPeer returns the slot of node among peers, which are sorted by
// node id: one binary search, for the cold paths that name a session by
// its endpoints (outside link events, the snapshot install, wiring).
func findPeer(peers []Peer, node NodeID) (int, bool) {
	return slices.BinarySearchFunc(peers, node, func(p Peer, n NodeID) int { return cmp.Compare(p.Node, n) })
}

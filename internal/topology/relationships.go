package topology

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Rel is the business relationship of a neighbor from a node's point of
// view, following the Gao–Rexford model.
type Rel uint8

// Relationship values. RelCustomer means "the neighbor is my customer".
const (
	RelNone Rel = iota
	RelCustomer
	RelPeer
	RelProvider
)

// String names the relationship.
func (r Rel) String() string {
	switch r {
	case RelCustomer:
		return "customer"
	case RelPeer:
		return "peer"
	case RelProvider:
		return "provider"
	default:
		return "none"
	}
}

// MarshalJSON encodes the relationship as its name, so annotation files
// stay readable and stable if the enum ever gains values.
func (r Rel) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.String())
}

// UnmarshalJSON decodes a relationship name written by MarshalJSON.
func (r *Rel) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	switch s {
	case "customer":
		*r = RelCustomer
	case "peer":
		*r = RelPeer
	case "provider":
		*r = RelProvider
	case "none":
		*r = RelNone
	default:
		return fmt.Errorf("topology: unknown relationship %q", s)
	}
	return nil
}

// Relationships records the business relationship on every link, keyed
// by direction: Of(a, b) is b's role from a's point of view.
type Relationships struct {
	of map[[2]int]Rel
}

// NewRelationships returns an empty relationship map.
func NewRelationships() *Relationships {
	return &Relationships{of: make(map[[2]int]Rel)}
}

// Set records that, from a's point of view, b is rel; the inverse
// direction is set consistently (customer <-> provider, peer <-> peer).
func (rs *Relationships) Set(a, b int, rel Rel) {
	rs.of[[2]int{a, b}] = rel
	switch rel {
	case RelCustomer:
		rs.of[[2]int{b, a}] = RelProvider
	case RelProvider:
		rs.of[[2]int{b, a}] = RelCustomer
	case RelPeer:
		rs.of[[2]int{b, a}] = RelPeer
	}
}

// Of returns b's role from a's point of view (RelNone if unset).
func (rs *Relationships) Of(a, b int) Rel {
	return rs.of[[2]int{a, b}]
}

// Class is the route class at a of routes learned from neighbor b, the
// Gao–Rexford local preference (lower wins): 1 when b is a's peer, 2 its
// provider, else 0 (a customer, unannotated, or no policy: rs nil). So
// Class(a, b) == 0 is also the export rule's "b is a's customer".
func (rs *Relationships) Class(a, b int) uint8 {
	if rs == nil {
		return 0
	}
	switch rs.Of(a, b) {
	case RelPeer:
		return 1
	case RelProvider:
		return 2
	default:
		return 0
	}
}

// Len returns the number of directed entries.
func (rs *Relationships) Len() int { return len(rs.of) }

// LinkRel is one undirected link's relationship annotation in canonical
// orientation: A < B, and Rel is B's role from A's point of view (the
// inverse direction is implied, exactly as Set records it).
type LinkRel struct {
	A   int `json:"a"`
	B   int `json:"b"`
	Rel Rel `json:"rel"`
}

// LinkAnnotations enumerates the relationship map as canonical link
// annotations, sorted by (A, B). The enumeration is the serialization
// contract: RelationshipsFromLinks(rs.LinkAnnotations()) reconstructs a
// map with identical Of answers, and two Relationships values agree on
// every pair iff their annotation lists are equal.
func (rs *Relationships) LinkAnnotations() []LinkRel {
	out := make([]LinkRel, 0, len(rs.of)/2)
	for k, rel := range rs.of {
		if k[0] < k[1] {
			out = append(out, LinkRel{A: k[0], B: k[1], Rel: rel})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// RelationshipsFromLinks rebuilds a relationship map from canonical link
// annotations (the inverse of LinkAnnotations).
func RelationshipsFromLinks(links []LinkRel) *Relationships {
	rs := NewRelationships()
	for _, l := range links {
		rs.Set(l.A, l.B, l.Rel)
	}
	return rs
}

// Validate checks pairwise consistency over the network's links.
func (rs *Relationships) Validate(nw *Network) error {
	for _, l := range nw.Links() {
		if l.Internal {
			continue
		}
		ab, ba := rs.Of(l.A, l.B), rs.Of(l.B, l.A)
		ok := (ab == RelCustomer && ba == RelProvider) ||
			(ab == RelProvider && ba == RelCustomer) ||
			(ab == RelPeer && ba == RelPeer)
		if !ok {
			return fmt.Errorf("topology: inconsistent relationship on link %d-%d: %v/%v",
				l.A, l.B, ab, ba)
		}
	}
	return nil
}

// InferRelationships assigns Gao–Rexford relationships from node degrees,
// the standard heuristic: on each link, if one endpoint's degree exceeds
// the other's by more than ratio, the bigger node is the provider;
// otherwise the endpoints peer. ratio must be >= 1 (e.g. 1.5).
func InferRelationships(nw *Network, ratio float64) (*Relationships, error) {
	if ratio < 1 {
		return nil, fmt.Errorf("topology: relationship ratio %v < 1", ratio)
	}
	rs := NewRelationships()
	for _, l := range nw.Links() {
		if l.Internal {
			continue
		}
		da, db := float64(nw.Degree(l.A)), float64(nw.Degree(l.B))
		switch {
		case da > db*ratio:
			rs.Set(l.A, l.B, RelCustomer) // B is A's customer
		case db > da*ratio:
			rs.Set(l.A, l.B, RelProvider) // B is A's provider
		default:
			rs.Set(l.A, l.B, RelPeer)
		}
	}
	return rs, nil
}

// HierarchicalRelationships assigns relationships from a BFS hierarchy
// rooted at the highest-degree node: on every link the endpoint closer
// to the root is the provider; links within a BFS level are peerings.
// Unlike the degree heuristic, this guarantees that every node pair has
// a valley-free path (up the tree to the common ancestor, then down), so
// policy routing retains full reachability — the realistic Internet
// property, where the tier-1 core is transit for everyone.
func HierarchicalRelationships(nw *Network) (*Relationships, error) {
	if nw.NumNodes() == 0 {
		return NewRelationships(), nil
	}
	if !nw.Connected() {
		return nil, fmt.Errorf("topology: hierarchical relationships need a connected graph")
	}
	root, best := 0, -1
	for v := 0; v < nw.NumNodes(); v++ {
		if d := nw.Degree(v); d > best {
			root, best = v, d
		}
	}
	level := nw.BFSHops(root, nil)
	rs := NewRelationships()
	for _, l := range nw.Links() {
		if l.Internal {
			continue
		}
		la, lb := level[l.A], level[l.B]
		switch {
		case la < lb:
			rs.Set(l.A, l.B, RelCustomer) // A is closer to the core
		case lb < la:
			rs.Set(l.A, l.B, RelProvider)
		default:
			rs.Set(l.A, l.B, RelPeer)
		}
	}
	return rs, nil
}

// ValleyFree reports whether the AS-level path as seen from a source
// node follows the Gao–Rexford export rules: zero or more customer-to-
// provider (uphill) hops, at most one peer hop, then zero or more
// provider-to-customer (downhill) hops. nodeOfAS maps each AS on the
// path to its (single) node; paths through multi-node ASes are not
// checked (returns true).
func ValleyFree(rs *Relationships, src int, path []int, nodeOfAS func(as int) (int, bool)) bool {
	if len(path) <= 1 {
		return true
	}
	// Walk the links src->path[0]->path[1]->... and classify each hop
	// from the upstream node's point of view. While climbing, any hop is
	// allowed; the first peer or customer hop is the peak, after which
	// only customer (downhill) hops may follow.
	climbing := true
	prev := src
	for _, as := range path {
		node, ok := nodeOfAS(as)
		if !ok {
			return true
		}
		switch rs.Of(prev, node) {
		case RelProvider: // uphill
			if !climbing {
				return false
			}
		case RelPeer: // the single allowed peak crossing
			if !climbing {
				return false
			}
			climbing = false
		case RelCustomer: // downhill
			climbing = false
		default:
			return true // unknown relationship: cannot judge
		}
		prev = node
	}
	return true
}

// Package failure selects which routers a large-scale failure destroys.
// The paper's default is a contiguous geographic failure: all routers in
// a region around the grid center fail together ("many failure scenarios
// ... are expected to be geographically concentrated"). Random scattered
// failures and edge-of-grid failures are provided for comparison.
package failure

import (
	"fmt"
	"math"
	"sort"

	"bgpsim/internal/des"
	"bgpsim/internal/topology"
)

// Kind names a failure model.
type Kind string

// Failure models.
const (
	// KindGeographic fails the k routers nearest to a point (default the
	// grid center), i.e. a growing contiguous disc. The paper's model.
	KindGeographic Kind = "geographic"
	// KindEdge fails the k routers nearest to a grid corner, for the
	// edge-effect comparison mentioned in Section 3.1.
	KindEdge Kind = "edge"
	// KindRandom fails k routers chosen uniformly at random.
	KindRandom Kind = "random"
)

// Kinds lists the supported failure models.
func Kinds() []Kind { return []Kind{KindGeographic, KindEdge, KindRandom} }

// Spec selects a failure. Exactly one of Fraction (of all routers) or
// Count must be positive.
type Spec struct {
	Kind     Kind            `json:"kind"`
	Fraction float64         `json:"fraction,omitempty"`
	Count    int             `json:"count,omitempty"`
	Center   *topology.Point `json:"center,omitempty"` // geographic only; default grid center
}

// Geographic returns the paper's default failure at the given fraction.
func Geographic(fraction float64) Spec {
	return Spec{Kind: KindGeographic, Fraction: fraction}
}

// Validate checks the spec.
func (s Spec) Validate() error {
	switch s.Kind {
	case KindGeographic, KindEdge, KindRandom:
	default:
		return fmt.Errorf("failure: unknown kind %q", s.Kind)
	}
	if (s.Fraction <= 0) == (s.Count <= 0) {
		return fmt.Errorf("failure: exactly one of Fraction or Count must be set")
	}
	if s.Fraction < 0 || s.Fraction > 1 {
		return fmt.Errorf("failure: fraction %v outside (0,1]", s.Fraction)
	}
	return nil
}

// CountFor resolves the spec to a node count for a network of n routers.
// A positive fraction rounds to the nearest node with a minimum of one.
func (s Spec) CountFor(n int) int {
	if s.Count > 0 {
		if s.Count > n {
			return n
		}
		return s.Count
	}
	k := int(math.Round(s.Fraction * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// Select returns the sorted IDs of the routers the failure kills.
// rng is consumed only by KindRandom.
func Select(nw *topology.Network, s Spec, rng *des.RNG) ([]int, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	k := s.CountFor(nw.NumNodes())
	var out []int
	switch s.Kind {
	case KindGeographic:
		center := topology.GridCenter(nw)
		if s.Center != nil {
			center = *s.Center
		}
		out = topology.NearestNodes(nw, center, k, nil)
	case KindEdge:
		out = topology.NearestNodes(nw, topology.Point{X: 0, Y: 0}, k, nil)
	case KindRandom:
		perm := rng.Perm(nw.NumNodes())
		out = append(out, perm[:k]...)
	}
	sort.Ints(out)
	return out, nil
}

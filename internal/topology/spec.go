package topology

import (
	"fmt"
	"math"

	"bgpsim/internal/des"
)

// Kind names a topology family.
type Kind string

// Topology families.
const (
	KindSkewed7030      Kind = "skewed-70-30"
	KindSkewed5050      Kind = "skewed-50-50"
	KindSkewed8515      Kind = "skewed-85-15"
	KindSkewed5050Dense Kind = "skewed-50-50-dense"
	KindInternetLike    Kind = "internet-like"
	KindRealistic       Kind = "realistic"
)

// Kinds lists every supported topology family: the four skewed
// two-class worlds of Figs 1–12, the Internet-like degree law, and the
// multi-router "realistic" worlds of Fig 13.
func Kinds() []Kind {
	return []Kind{
		KindSkewed7030, KindSkewed5050, KindSkewed8515, KindSkewed5050Dense,
		KindInternetLike, KindRealistic,
	}
}

// Spec selects a topology family and the few values a run varies. It is
// a flat comparable value, so a (Spec, seed) pair can key a memo.
type Spec struct {
	Kind Kind `json:"kind"`
	// N is the node count for AS-level families and the AS count for the
	// realistic family.
	N int `json:"n"`
	// MaxASSize caps the routers per AS of the realistic family (0 keeps
	// DefaultRealistic's cap). Other families ignore it.
	MaxASSize int `json:"maxASSize,omitempty"`
	// PrefixesPerOrigin is the number of destination prefixes each AS
	// originates (0 = 1). It does not change the generated graph — Build
	// ignores it — but rides on the spec so the scenario layer can scale
	// the routing-table dimension of a run the same way N scales the
	// topology.
	PrefixesPerOrigin int `json:"prefixesPerOrigin,omitempty"`
	// Relationships selects a deterministic Gao–Rexford annotation of the
	// generated graph: "" (no policy), RelModeInfer (degree heuristic at
	// RelationshipRatio), or RelModeHierarchical (BFS hierarchy, full
	// valley-free reachability). Like PrefixesPerOrigin it does not change
	// the graph — Build ignores it — but rides on the spec so one value
	// names both the world and its policy: the scenario layer and the
	// snapshot backend derive the same annotation from it (see
	// BuildRelationships).
	Relationships string `json:"relationships,omitempty"`
	// RelationshipRatio is the degree ratio for RelModeInfer (0 selects
	// DefaultRelationshipRatio).
	RelationshipRatio float64 `json:"relationshipRatio,omitempty"`
}

// Relationship annotation modes for Spec.Relationships.
const (
	RelModeInfer        = "infer"
	RelModeHierarchical = "hierarchical"
)

// DefaultRelationshipRatio is the degree ratio RelModeInfer uses when
// the spec leaves RelationshipRatio zero (the conventional 1.5).
const DefaultRelationshipRatio = 1.5

// BuildRelationships derives the spec's relationship annotation for a
// network built from the same spec. It returns (nil, nil) when the spec
// requests no annotation. The derivation is deterministic — no RNG — so
// every consumer of a (spec, network) pair reconstructs the identical
// relationship map.
func (s Spec) BuildRelationships(nw *Network) (*Relationships, error) {
	switch s.Relationships {
	case "":
		return nil, nil
	case RelModeInfer:
		ratio := s.RelationshipRatio
		if ratio == 0 {
			ratio = DefaultRelationshipRatio
		}
		return InferRelationships(nw, ratio)
	case RelModeHierarchical:
		return HierarchicalRelationships(nw)
	default:
		return nil, fmt.Errorf("topology: unknown relationship mode %q", s.Relationships)
	}
}

// Validate checks what no family constructor checks: a known kind, a
// known relationship mode, and a finite RelationshipRatio. A NaN passes
// every range comparison, so it is refused here; negative and
// out-of-range sizes are errors from the family constructor, which Build
// reports.
func (s Spec) Validate() error {
	if !knownKind(s.Kind) {
		return fmt.Errorf("topology: unknown kind %q", s.Kind)
	}
	switch s.Relationships {
	case "", RelModeInfer, RelModeHierarchical:
	default:
		return fmt.Errorf("topology: unknown relationship mode %q", s.Relationships)
	}
	if r := s.RelationshipRatio; math.IsNaN(r) || math.IsInf(r, 0) {
		return fmt.Errorf("topology: relationshipRatio=%v, need a finite value", r)
	}
	return nil
}

func knownKind(k Kind) bool {
	for _, kk := range Kinds() {
		if k == kk {
			return true
		}
	}
	return false
}

// Build constructs a network from the spec using the supplied stream. It
// draws nothing from rng for a spec that fails Validate.
func (s Spec) Build(rng *des.RNG) (*Network, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	switch s.Kind {
	case KindSkewed7030:
		return SkewedNetwork(Skewed7030(s.N), rng)
	case KindSkewed5050:
		return SkewedNetwork(Skewed5050(s.N), rng)
	case KindSkewed8515:
		return SkewedNetwork(Skewed8515(s.N), rng)
	case KindSkewed5050Dense:
		return SkewedNetwork(Skewed5050Dense(s.N), rng)
	case KindInternetLike:
		return InternetLikeNetwork(s.N, paperAvgDegree, paperMaxDegree, rng)
	case KindRealistic:
		spec := DefaultRealistic(s.N)
		if s.MaxASSize != 0 {
			spec.MaxASSize = s.MaxASSize
		}
		return Realistic(spec, rng)
	default:
		return nil, fmt.Errorf("topology: unknown kind %q", s.Kind)
	}
}

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
	KindWaxman          Kind = "waxman"
	KindBarabasiAlbert  Kind = "barabasi-albert"
	KindGLP             Kind = "glp"
	KindRealistic       Kind = "realistic"
)

// Kinds lists every supported topology family.
func Kinds() []Kind {
	return []Kind{
		KindSkewed7030, KindSkewed5050, KindSkewed8515, KindSkewed5050Dense,
		KindInternetLike, KindWaxman, KindBarabasiAlbert, KindGLP, KindRealistic,
	}
}

// Spec selects and parameterizes a topology family. Zero-valued optional
// fields take family defaults.
type Spec struct {
	Kind Kind `json:"kind"`
	// N is the node count for AS-level families and the AS count for the
	// realistic family.
	N int `json:"n"`

	// Waxman parameters.
	WaxmanAlpha float64 `json:"waxmanAlpha,omitempty"`
	WaxmanBeta  float64 `json:"waxmanBeta,omitempty"`
	// Barabási–Albert / GLP parameters.
	M       int     `json:"m,omitempty"`
	GLPP    float64 `json:"glpP,omitempty"`
	GLPBeta float64 `json:"glpBeta,omitempty"`
	// Internet-like parameters.
	AvgDegree float64 `json:"avgDegree,omitempty"`
	MaxDegree int     `json:"maxDegree,omitempty"`
	// Realistic parameters.
	MaxASSize int     `json:"maxASSize,omitempty"`
	MinASSize int     `json:"minASSize,omitempty"`
	SizeAlpha float64 `json:"sizeAlpha,omitempty"`
	// PrefixesPerOrigin is the number of destination prefixes each AS
	// originates (0 = family default of 1). It does not change the
	// generated graph — Build ignores it — but rides on the spec so the
	// scenario layer can scale the routing-table dimension of a run the
	// same way the other knobs scale the topology, and so distributed
	// workers reconstruct identical multi-prefix scenarios from the spec
	// alone.
	PrefixesPerOrigin int `json:"prefixesPerOrigin,omitempty"`
	// Relationships selects a deterministic Gao–Rexford annotation of the
	// generated graph: "" (no policy), RelModeInfer (degree heuristic at
	// RelationshipRatio), or RelModeHierarchical (BFS hierarchy, full
	// valley-free reachability). Like PrefixesPerOrigin it does not change
	// the graph — Build ignores it — but rides on the spec so one artifact
	// names both the world and its policy: the scenario layer, distributed
	// workers, and the snapshot backend all derive the same annotation
	// from the spec alone (see BuildRelationships).
	Relationships string `json:"relationships,omitempty"`
	// RelationshipRatio is the degree ratio for RelModeInfer (0 selects
	// DefaultRelationshipRatio).
	RelationshipRatio float64 `json:"relationshipRatio,omitempty"`
	// Custom skewed spec; used when Kind is empty and Skewed is non-nil.
	Skewed *SkewedSpec `json:"skewed,omitempty"`
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

// Validate checks what no family constructor checks: a known kind (or a
// custom skewed spec), a known relationship mode, and finite float
// fields. A NaN passes every range comparison a constructor makes, so it
// is refused here; negative and out-of-range values are errors from the
// family constructor, which Build reports.
func (s Spec) Validate() error {
	if s.Skewed == nil && !knownKind(s.Kind) {
		return fmt.Errorf("topology: unknown kind %q", s.Kind)
	}
	switch s.Relationships {
	case "", RelModeInfer, RelModeHierarchical:
	default:
		return fmt.Errorf("topology: unknown relationship mode %q", s.Relationships)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"waxmanAlpha", s.WaxmanAlpha}, {"waxmanBeta", s.WaxmanBeta}, {"glpP", s.GLPP},
		{"glpBeta", s.GLPBeta}, {"avgDegree", s.AvgDegree}, {"sizeAlpha", s.SizeAlpha},
		{"relationshipRatio", s.RelationshipRatio},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("topology: %s=%v, need a finite value", f.name, f.v)
		}
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
	if s.Skewed != nil {
		sk := *s.Skewed
		if sk.N == 0 {
			sk.N = s.N
		}
		return SkewedNetwork(sk, rng)
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
		avg, maxD := s.AvgDegree, s.MaxDegree
		if avg == 0 {
			avg = paperAvgDegree
		}
		if maxD == 0 {
			maxD = paperMaxDegree
		}
		return InternetLikeNetwork(s.N, avg, maxD, rng)
	case KindWaxman:
		alpha, beta := s.WaxmanAlpha, s.WaxmanBeta
		if alpha == 0 {
			alpha = 0.15
		}
		if beta == 0 {
			beta = 0.2
		}
		return Waxman(WaxmanSpec{N: s.N, Alpha: alpha, Beta: beta}, rng)
	case KindBarabasiAlbert:
		m := s.M
		if m == 0 {
			m = 2
		}
		return BarabasiAlbert(BarabasiAlbertSpec{N: s.N, M: m}, rng)
	case KindGLP:
		m, p, beta := s.M, s.GLPP, s.GLPBeta
		if m == 0 {
			m = 1
		}
		if p == 0 {
			p = 0.45
		}
		if beta == 0 {
			beta = 0.64
		}
		return GLP(GLPSpec{N: s.N, M: m, P: p, Beta: beta}, rng)
	case KindRealistic:
		spec := DefaultRealistic(s.N)
		if s.AvgDegree != 0 {
			spec.AvgDegree = s.AvgDegree
		}
		if s.MaxDegree != 0 {
			spec.MaxDegree = s.MaxDegree
		}
		if s.MaxASSize != 0 {
			spec.MaxASSize = s.MaxASSize
		}
		if s.MinASSize != 0 {
			spec.MinASSize = s.MinASSize
		}
		if s.SizeAlpha != 0 {
			spec.SizeAlpha = s.SizeAlpha
		}
		return Realistic(spec, rng)
	default:
		return nil, fmt.Errorf("topology: unknown kind %q", s.Kind)
	}
}

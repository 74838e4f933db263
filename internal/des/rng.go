package des

import (
	"math"
	"math/rand"
	"time"
)

// RNG is a seeded random stream for model code. It wraps math/rand with
// helpers for the distributions the BGP experiments draw from. Independent
// model components should use independent streams (see Split) so that
// adding draws in one component does not perturb another.
//
// Its source is this package's copy of math/rand's default source (see
// source.go): every stream equals rand.New(rand.NewSource(seed)) draw for
// draw, and only seeding is faster: a stream allocates and fills its
// 4.9 KB state at its (lazyMax+1)-th draw, so a stream drawn from only a
// few times — a parent that Split is called on — never does. An RNG must
// not be copied by value — r points at src.
type RNG struct {
	r   rand.Rand
	src source
}

// NewRNG returns a stream seeded with seed.
func NewRNG(seed int64) *RNG {
	g := &RNG{}
	g.src.Seed(seed)
	g.r = *rand.New(&g.src)
	return g
}

// Split derives an independent stream from this one, keyed by label so the
// derivation is stable regardless of call order elsewhere.
func (g *RNG) Split(label string) *RNG {
	return NewRNG(g.SplitSeed(label))
}

// SplitSeed returns the seed Split(label) would give the derived stream,
// consuming one draw from this stream. It exists so an already-shared
// child stream can be rewound in place (see Reseed) to exactly the state
// a fresh Split would produce, without invalidating pointers to it.
func (g *RNG) SplitSeed(label string) int64 {
	h := int64(1469598103934665603) // FNV-1a offset basis
	for i := 0; i < len(label); i++ {
		h ^= int64(label[i])
		h *= 1099511628211
	}
	return h ^ g.r.Int63()
}

// Reseed rewinds the stream in place to the state NewRNG(seed) produces.
// Every existing pointer to the RNG stays valid and observes the fresh
// stream — the property the simulator's measurement-window normalization
// depends on (router contexts hold the stream pointer across the reseed).
// It seeds the source it already has, exactly as NewRNG seeds a new one,
// and allocates nothing: a churn trial reseeds once per window.
func (g *RNG) Reseed(seed int64) {
	g.r.Seed(seed)
}

// Int63 returns a non-negative 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Intn returns an int in [0, n). It panics if n <= 0.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Float64 returns a float in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// ExpFloat64 returns an exponentially distributed float with mean 1.
func (g *RNG) ExpFloat64() float64 { return g.r.ExpFloat64() }

// UniformDuration returns a duration uniformly distributed in [lo, hi].
// It panics if hi < lo.
func (g *RNG) UniformDuration(lo, hi time.Duration) time.Duration {
	// Invariant: callers pass validated bounds (bgp.Params.Validate,
	// churn.Spec.Validate), so an inverted range is a programming error.
	if hi < lo {
		panic("des: UniformDuration with hi < lo")
	}
	if hi == lo {
		return lo
	}
	span := int64(hi - lo + 1)
	return lo + time.Duration(g.r.Int63n(span))
}

// Jitter applies the RFC 1771 timer jitter: the configured value is
// multiplied by a uniform factor in [0.75, 1.0), i.e. reduced by up to 25%.
func (g *RNG) Jitter(base time.Duration) time.Duration {
	if base <= 0 {
		return 0
	}
	factor := 0.75 + 0.25*g.r.Float64()
	return time.Duration(float64(base) * factor)
}

// Pareto returns a bounded Pareto draw in [lo, hi] with shape alpha.
// It is used for heavy-tailed AS sizes.
func (g *RNG) Pareto(alpha, lo, hi float64) float64 {
	// Invariant: the one caller, topology.Realistic, passes a validated
	// RealisticSpec (SizeAlpha > 0, 1 <= MinASSize <= MaxASSize).
	if lo <= 0 || hi < lo || alpha <= 0 {
		panic("des: Pareto with invalid parameters")
	}
	u := g.r.Float64()
	la := math.Pow(lo, alpha)
	ha := math.Pow(hi, alpha)
	x := math.Pow(ha*la/(ha-u*(ha-la)), 1/alpha)
	if x < lo {
		x = lo
	}
	if x > hi {
		x = hi
	}
	return x
}

package topology

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"bgpsim/internal/des"
)

// SkewedSpec describes a two-class ("skewed") degree distribution: a
// fraction of low-degree nodes with degrees drawn uniformly from
// [LowMin, LowMax], and the rest high-degree nodes with degrees from
// {HighMin, ..., HighMax} mixed to hit TargetAvg when TargetAvg > 0.
//
// This is the paper's primary topology family: "70% of the nodes had low
// degree and the remaining 30% had higher degree."
type SkewedSpec struct {
	N         int
	FracLow   float64
	LowMin    int
	LowMax    int
	HighMin   int
	HighMax   int
	TargetAvg float64
}

// Validate checks the spec for internal consistency.
func (s SkewedSpec) Validate() error {
	switch {
	case s.N < 2:
		return fmt.Errorf("topology: skewed N=%d, need >= 2", s.N)
	case !(s.FracLow >= 0 && s.FracLow <= 1):
		return fmt.Errorf("topology: skewed FracLow=%v outside [0,1]", s.FracLow)
	case s.LowMin < 1 || s.LowMax < s.LowMin:
		return fmt.Errorf("topology: skewed low range [%d,%d] invalid", s.LowMin, s.LowMax)
	case s.HighMin < 1 || s.HighMax < s.HighMin:
		return fmt.Errorf("topology: skewed high range [%d,%d] invalid", s.HighMin, s.HighMax)
	case s.HighMax >= s.N:
		return fmt.Errorf("topology: skewed HighMax=%d >= N=%d", s.HighMax, s.N)
	}
	return nil
}

// The paper's four skewed presets, all on the 1000×1000 grid. Average
// degrees: 3.8 for the first three, 7.6 for the dense variant.

// Skewed7030 is the paper's default: 70% of nodes with degree 1–3,
// 30% with degree 8 (average 3.8).
func Skewed7030(n int) SkewedSpec {
	return SkewedSpec{N: n, FracLow: 0.70, LowMin: 1, LowMax: 3, HighMin: 8, HighMax: 8, TargetAvg: 3.8}
}

// Skewed5050 is 50% degree 1–3, 50% degree 5 or 6 (average 3.8).
func Skewed5050(n int) SkewedSpec {
	return SkewedSpec{N: n, FracLow: 0.50, LowMin: 1, LowMax: 3, HighMin: 5, HighMax: 6, TargetAvg: 3.8}
}

// Skewed8515 is 85% degree 1–3, 15% degree 14 (average 3.8).
func Skewed8515(n int) SkewedSpec {
	return SkewedSpec{N: n, FracLow: 0.85, LowMin: 1, LowMax: 3, HighMin: 14, HighMax: 14, TargetAvg: 3.8}
}

// Skewed5050Dense is 50% degree 1–3, 50% degree 13 or 14 (average 7.6),
// the higher-average-degree topology of Fig 5.
func Skewed5050Dense(n int) SkewedSpec {
	return SkewedSpec{N: n, FracLow: 0.50, LowMin: 1, LowMax: 3, HighMin: 13, HighMax: 14, TargetAvg: 7.6}
}

// Degrees draws a degree sequence from the spec. The sum is forced even so
// a graph realization exists.
func (s SkewedSpec) Degrees(rng *des.RNG) ([]int, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	nLow := int(math.Round(float64(s.N) * s.FracLow))
	if nLow > s.N {
		nLow = s.N
	}
	nHigh := s.N - nLow
	degrees := make([]int, 0, s.N)
	for i := 0; i < nLow; i++ {
		degrees = append(degrees, s.LowMin+rng.Intn(s.LowMax-s.LowMin+1))
	}
	// Pick the high-class mix. With TargetAvg set, choose the fraction of
	// HighMax draws so the expected overall average matches.
	pHigh := 0.5
	if s.TargetAvg > 0 && nHigh > 0 && s.HighMax > s.HighMin {
		lowMean := float64(s.LowMin+s.LowMax) / 2
		needHighMean := (s.TargetAvg*float64(s.N) - lowMean*float64(nLow)) / float64(nHigh)
		pHigh = (needHighMean - float64(s.HighMin)) / float64(s.HighMax-s.HighMin)
		pHigh = math.Max(0, math.Min(1, pHigh))
	}
	for i := 0; i < nHigh; i++ {
		d := s.HighMin
		if s.HighMax > s.HighMin && rng.Float64() < pHigh {
			d = s.HighMax
		}
		degrees = append(degrees, d)
	}
	evenizeDegrees(degrees)
	return degrees, nil
}

// evenizeDegrees bumps one entry so the degree sum is even.
func evenizeDegrees(degrees []int) {
	sum := 0
	for _, d := range degrees {
		sum += d
	}
	if sum%2 == 1 {
		degrees[0]++
	}
}

// PowerLawDegrees draws n degrees from a bounded discrete power law
// P(d) ∝ d^-gamma for d in [min, max].
func PowerLawDegrees(n int, gamma float64, min, max int, rng *des.RNG) ([]int, error) {
	if n < 2 || min < 1 || max < min || gamma <= 0 {
		return nil, fmt.Errorf("topology: power law params n=%d gamma=%v range [%d,%d]", n, gamma, min, max)
	}
	return newDegreeLaw(gamma, min, max).degrees(n, rng), nil
}

// degreeLaw is a bounded discrete power law P(d) ∝ d^-gamma on
// [min, min+len(cum)-1], ready to draw from: cum[i] is the sum of the
// weights of degrees min…min+i, accumulated in that order.
type degreeLaw struct {
	min int
	cum []float64
}

func newDegreeLaw(gamma float64, min, max int) degreeLaw {
	l := degreeLaw{min: min, cum: make([]float64, max-min+1)}
	total := 0.0
	for d := min; d <= max; d++ {
		total += math.Pow(float64(d), -gamma)
		l.cum[d-min] = total
	}
	return l
}

// draw returns the first degree whose running weight sum exceeds a
// uniform draw over the total weight, or the cap when rounding leaves
// none.
func (l degreeLaw) draw(rng *des.RNG) int {
	u := rng.Float64() * l.cum[len(l.cum)-1]
	for i, c := range l.cum {
		if u < c {
			return l.min + i
		}
	}
	return l.min + len(l.cum) - 1
}

// degrees draws n degrees and forces their sum even.
func (l degreeLaw) degrees(n int, rng *des.RNG) []int {
	degrees := make([]int, n)
	for i := range degrees {
		degrees[i] = l.draw(rng)
	}
	evenizeDegrees(degrees)
	return degrees
}

// PowerLawGammaForAvg solves (by bisection) for the exponent gamma such
// that a bounded power law on [min, max] has the requested mean degree.
func PowerLawGammaForAvg(avg float64, min, max int) (float64, error) {
	if avg <= float64(min) || avg >= float64(max) {
		return 0, fmt.Errorf("topology: target avg %v outside (%d,%d)", avg, min, max)
	}
	mean := func(gamma float64) float64 {
		num, den := 0.0, 0.0
		for d := min; d <= max; d++ {
			w := math.Pow(float64(d), -gamma)
			num += float64(d) * w
			den += w
		}
		return num / den
	}
	lo, hi := 0.01, 10.0 // mean(lo) ≈ uniform-high, mean(hi) ≈ min
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if mid == lo || mid == hi {
			// lo and hi are adjacent floats: every further step leaves
			// (lo+hi)/2 at mid.
			break
		}
		if mean(mid) > avg {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// The paper's Internet-like degree law: mean degree ≈ 3.4, capped at 40.
// paperGamma is PowerLawGammaForAvg(3.4, 1, 40), written out so no world
// re-solves it (TestPaperDegreeLawIsTheSolve holds the two equal).
const (
	paperAvgDegree = 3.4
	paperMaxDegree = 40
	paperGamma     = 0x1.c835bca752f18p+00
)

// paperLaw is the paper's degree law, built once: a constant in all but
// name, never written after init.
var paperLaw = newDegreeLaw(paperGamma, 1, paperMaxDegree)

// InternetLikeDegrees draws a degree sequence shaped like the measured
// Internet AS connectivity the paper cites: heavy-tailed, capped at
// maxDegree (the paper uses 40 for 120-node networks), with the exponent
// chosen to hit avgDegree (the paper reports ≈3.4). The paper's pair
// draws from paperLaw; any other is solved for its exponent, as is a
// request PowerLawDegrees refuses, so the refusal names the exponent.
func InternetLikeDegrees(n int, avgDegree float64, maxDegree int, rng *des.RNG) ([]int, error) {
	if n >= 2 && avgDegree == paperAvgDegree && maxDegree == paperMaxDegree {
		return paperLaw.degrees(n, rng), nil
	}
	gamma, err := PowerLawGammaForAvg(avgDegree, 1, maxDegree)
	if err != nil {
		return nil, err
	}
	return PowerLawDegrees(n, gamma, 1, maxDegree, rng)
}

// ErrDegreeSequence is returned when a degree sequence cannot be realized
// as a simple graph even after rewiring.
var ErrDegreeSequence = errors.New("topology: degree sequence not realizable")

// FromDegreeSequence realizes a degree sequence as a simple connected
// graph using the configuration model with edge-swap repair:
//
//  1. pair random stubs; retry pairings that would create self-loops or
//     duplicate links via degree-preserving edge swaps;
//  2. merge connected components with degree-preserving double swaps.
//
// If a handful of stubs cannot be placed the corresponding degrees fall
// short by one — the same tolerance BRITE exhibits — but the result is
// always simple and connected.
//
// A build makes a fixed number of allocations whatever the size: every
// node's adjacency is carved from one slab sized from the sequence, with
// room for one link more than its degree (connect may attach an isolated
// component by one extra link; an append past that room still works).
func FromDegreeSequence(degrees []int, rng *des.RNG) (*Network, error) {
	n := len(degrees)
	if n < 2 {
		return nil, fmt.Errorf("topology: need >= 2 nodes, got %d", n)
	}
	sum := 0
	for i, d := range degrees {
		if d < 0 || d >= n {
			return nil, fmt.Errorf("topology: degree %d at node %d out of range", d, i)
		}
		sum += d
	}
	if sum%2 == 1 {
		return nil, fmt.Errorf("topology: odd degree sum %d", sum)
	}

	nw := NewNetwork(n)
	slab := make([]Neighbor, sum+n)
	for i, d := range degrees {
		nw.adj[i], slab = slab[:0:d+1], slab[d+1:]
	}
	ints := make([]int, sum+n)
	x := linkIndex{nw: nw, up: ints[sum:]}
	stubs := ints[:0:sum]
	for i, d := range degrees {
		for k := 0; k < d; k++ {
			stubs = append(stubs, i)
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })

	// A pair that would make a self-loop or a duplicate link is deferred:
	// kept in the prefix of stubs the loop has already read.
	deferred := stubs[:0]
	for i := 0; i+1 < len(stubs); i += 2 {
		a, b := stubs[i], stubs[i+1]
		if a == b || nw.HasLink(a, b) {
			deferred = append(deferred, a, b)
			continue
		}
		x.add(a, b)
	}
	// Resolve deferred pairs by swapping with a random existing link:
	// (a,b) bad + existing (c,d) -> (a,c) and (b,d). An unplaceable stub
	// pair is tolerated as a degree deficit of one at each endpoint
	// rather than failing the whole build.
	for i := 0; i < len(deferred); i += 2 {
		trySwapIn(x, deferred[i], deferred[i+1], rng)
	}
	if err := connect(x, rng); err != nil {
		return nil, err
	}
	return nw, nil
}

// linkIndex counts, for every node, its links to higher-numbered nodes:
// the node's share of Links(). With it, a uniform pick from Links() or
// from a component's links walks the counts instead of building the list.
// Every link change made while an index is in use goes through add and
// remove, which keep the counts.
type linkIndex struct {
	nw *Network
	up []int
}

// newLinkIndex counts nw's links into up, which has one entry per node.
func newLinkIndex(nw *Network, up []int) linkIndex {
	for v, adj := range nw.adj {
		up[v] = 0
		for _, nb := range adj {
			if v < nb.ID {
				up[v]++
			}
		}
	}
	return linkIndex{nw: nw, up: up}
}

// add links a and b, which its caller has checked may be linked.
func (x linkIndex) add(a, b int) {
	mustAdd(x.nw, a, b, false)
	x.up[min(a, b)]++
}

// remove unlinks a and b, which are linked.
func (x linkIndex) remove(a, b int) {
	x.nw.RemoveLink(a, b)
	x.up[min(a, b)]--
}

// count returns how many links nodes hold to higher-numbered nodes: for a
// connected component, its number of links.
func (x linkIndex) count(nodes []int) int {
	c := 0
	for _, v := range nodes {
		c += x.up[v]
	}
	return c
}

// linkAt returns Links()[k], for k < NumLinks().
func (x linkIndex) linkAt(k int) Neighbor2 {
	v := 0
	for k >= x.up[v] {
		k -= x.up[v]
		v++
	}
	return x.upper(v, k)
}

// linkIn returns link k of the list that appending every node's links to
// higher-numbered nodes, in the order of nodes, would build; k <
// count(nodes).
func (x linkIndex) linkIn(nodes []int, k int) Neighbor2 {
	i := 0
	for k >= x.up[nodes[i]] {
		k -= x.up[nodes[i]]
		i++
	}
	return x.upper(nodes[i], k)
}

// upper returns v's j-th link to a higher-numbered node, in adjacency
// order.
func (x linkIndex) upper(v, j int) Neighbor2 {
	for _, nb := range x.nw.adj[v] {
		if v < nb.ID {
			if j == 0 {
				return Neighbor2{A: v, B: nb.ID, Internal: nb.Internal}
			}
			j--
		}
	}
	// Invariant: callers pass j < up[v], and add and remove keep up[v]
	// equal to v's links to higher-numbered nodes.
	panic("topology: linkIndex count out of step with the adjacency")
}

// trySwapIn inserts the stub pair (a,b) by swapping with random existing
// links, preserving all degrees. Returns false after bounded attempts.
func trySwapIn(x linkIndex, a, b int, rng *des.RNG) bool {
	nw := x.nw
	if nw.links == 0 {
		return false
	}
	for attempt := 0; attempt < 200; attempt++ {
		l := x.linkAt(rng.Intn(nw.links))
		c, d := l.A, l.B
		if rng.Intn(2) == 0 {
			c, d = d, c
		}
		if a == c || a == d || b == c || b == d {
			continue
		}
		if nw.HasLink(a, c) || nw.HasLink(b, d) {
			continue
		}
		x.remove(c, d)
		x.add(a, c)
		x.add(b, d)
		return true
	}
	return false
}

// mustAdd adds a link its caller has already checked: endpoints distinct,
// in range and not yet adjacent. A failure is a programming error.
func mustAdd(nw *Network, a, b int, internal bool) {
	if err := nw.AddLink(a, b, internal); err != nil {
		panic(fmt.Sprintf("topology: internal error adding checked link: %v", err))
	}
}

// connect merges the components of the indexed network into one using
// degree-preserving double edge swaps where possible, falling back to
// adding a single link for edgeless components (degree deviation of
// one). Each round merges the second-largest component into the largest.
func connect(x linkIndex, rng *des.RNG) error {
	var comps components
	for guard := 0; guard < x.nw.NumNodes()+10; guard++ {
		comps.find(x.nw)
		if len(comps.spans) <= 1 {
			return nil
		}
		if !merge(x, comps.nodes(0), comps.nodes(1), rng) {
			return ErrDegreeSequence
		}
	}
	if !x.nw.Connected() {
		return ErrDegreeSequence
	}
	return nil
}

// merge joins other into main. It prefers the degree-preserving swap
// (a,b)+(c,d) -> (a,c)+(b,d) with (a,b) in main and (c,d) in other; if
// either has no links (an isolated node), it adds one link. A component
// is closed under adjacency, so a member's links to higher-numbered nodes
// are exactly its links within the component.
func merge(x linkIndex, main, other []int, rng *des.RNG) bool {
	nw := x.nw
	mainLinks, otherLinks := x.count(main), x.count(other)
	if otherLinks == 0 || mainLinks == 0 {
		// Isolated node or edgeless component: attach it directly.
		a := other[rng.Intn(len(other))]
		for attempt := 0; attempt < 50; attempt++ {
			b := main[rng.Intn(len(main))]
			if !nw.HasLink(a, b) {
				x.add(a, b)
				return true
			}
		}
		return false
	}
	for attempt := 0; attempt < 200; attempt++ {
		l1 := x.linkIn(main, rng.Intn(mainLinks))
		l2 := x.linkIn(other, rng.Intn(otherLinks))
		a, b, c, d := l1.A, l1.B, l2.A, l2.B
		if nw.HasLink(a, c) || nw.HasLink(b, d) {
			continue
		}
		x.remove(a, b)
		x.remove(c, d)
		x.add(a, c)
		x.add(b, d)
		return true
	}
	return false
}

// SortedDegrees returns the degree sequence of nw in descending order.
func SortedDegrees(nw *Network) []int {
	out := make([]int, nw.NumNodes())
	for i := range out {
		out[i] = nw.Degree(i)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

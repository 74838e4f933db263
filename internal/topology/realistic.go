package topology

import (
	"fmt"
	"math"
	"sort"

	"bgpsim/internal/des"
)

// RealisticSpec parameterizes the paper's "realistic" topologies
// (Section 4.4, Fig 13): multiple routers per AS with heavy-tailed AS
// sizes, an Internet-derived inter-AS degree distribution capped at
// MaxDegree, the geographic extent of each AS proportional to its size,
// and the highest inter-AS degrees assigned to the largest ASes.
type RealisticSpec struct {
	NumAS     int
	AvgDegree float64 // inter-AS average degree (paper: ≈3.4)
	MaxDegree int     // inter-AS degree cap (paper: 40)
	MinASSize int     // routers per AS, lower bound (paper: 1)
	MaxASSize int     // routers per AS, upper bound (paper: 100)
	SizeAlpha float64 // bounded-Pareto shape for AS sizes
}

// DefaultRealistic mirrors the paper's Fig 13 configuration at a given AS
// count. MaxASSize 100 reproduces the paper exactly but makes IBGP meshes
// large; callers benchmarking repeatedly may scale it down.
func DefaultRealistic(numAS int) RealisticSpec {
	// The paper caps the maximum inter-AS degree at a third of the AS count
	// ("We restricted the maximum degree in the distribution to 40 because
	// we have only 120 ASes"). Scale the cap the same way for other sizes.
	maxDeg := numAS / 3
	if maxDeg > paperMaxDegree {
		maxDeg = paperMaxDegree
	}
	if maxDeg < 5 {
		maxDeg = 5
	}
	return RealisticSpec{
		NumAS:     numAS,
		AvgDegree: paperAvgDegree,
		MaxDegree: maxDeg,
		MinASSize: 1,
		MaxASSize: 100,
		SizeAlpha: 1.2,
	}
}

// Validate checks the spec.
func (s RealisticSpec) Validate() error {
	switch {
	case s.NumAS < 2:
		return fmt.Errorf("topology: realistic NumAS=%d", s.NumAS)
	case s.MaxDegree < 2 || s.MaxDegree >= s.NumAS:
		return fmt.Errorf("topology: realistic MaxDegree=%d with NumAS=%d", s.MaxDegree, s.NumAS)
	case !(s.AvgDegree > 1 && s.AvgDegree < float64(s.MaxDegree)):
		return fmt.Errorf("topology: realistic AvgDegree=%v", s.AvgDegree)
	case s.MinASSize < 1 || s.MaxASSize < s.MinASSize:
		return fmt.Errorf("topology: realistic AS size range [%d,%d]", s.MinASSize, s.MaxASSize)
	case !(s.SizeAlpha > 0) || math.IsInf(s.SizeAlpha, 1):
		return fmt.Errorf("topology: realistic SizeAlpha=%v", s.SizeAlpha)
	}
	return nil
}

// Realistic builds a router-level network per the spec:
//
//  1. generate the AS-level graph (Internet-like degrees);
//  2. draw heavy-tailed AS sizes and assign the largest sizes to the
//     highest-degree ASes (perfect size↔degree correlation, as the paper
//     assumes);
//  3. place each AS's routers in a square whose area is proportional to
//     the AS size;
//  4. connect routers within an AS as a full IBGP mesh (internal links);
//  5. realize each inter-AS link between randomly chosen border routers.
func Realistic(spec RealisticSpec, rng *des.RNG) (*Network, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	asGraph, err := InternetLikeNetwork(spec.NumAS, spec.AvgDegree, spec.MaxDegree, rng)
	if err != nil {
		return nil, fmt.Errorf("AS graph: %w", err)
	}

	// Heavy-tailed sizes, biggest size -> biggest degree.
	sizes := make([]int, spec.NumAS)
	for i := range sizes {
		sizes[i] = int(math.Round(rng.Pareto(spec.SizeAlpha, float64(spec.MinASSize), float64(spec.MaxASSize))))
		if sizes[i] < spec.MinASSize {
			sizes[i] = spec.MinASSize
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	byDegree := make([]int, spec.NumAS)
	for i := range byDegree {
		byDegree[i] = i
	}
	sort.Slice(byDegree, func(i, j int) bool {
		di, dj := asGraph.Degree(byDegree[i]), asGraph.Degree(byDegree[j])
		if di != dj {
			return di > dj
		}
		return byDegree[i] < byDegree[j]
	})
	asSize := make([]int, spec.NumAS)
	for rank, as := range byDegree {
		asSize[as] = sizes[rank]
	}

	total := 0
	for _, s := range asSize {
		total += s
	}
	nw := NewNetwork(total)
	nw.SetGrid(asGraph.Grid())

	// Router id ranges per AS, placed in a size-proportional square around
	// the AS-level position.
	routersOf := make([][]int, spec.NumAS)
	next := 0
	totalArea := nw.Grid() * nw.Grid()
	for as := 0; as < spec.NumAS; as++ {
		ids := make([]int, asSize[as])
		for k := range ids {
			ids[k] = next
			nw.SetAS(next, as)
			next++
		}
		routersOf[as] = ids
		// Area proportional to size: each router "occupies" an equal share
		// of a fraction of the grid. The 0.25 factor keeps ASes compact
		// relative to the full grid, matching BRITE-style layouts.
		area := 0.25 * totalArea * float64(asSize[as]) / float64(total)
		side := math.Sqrt(area)
		PlaceInSquare(nw, ids, asGraph.Node(as).Pos, side, rng)
		// IBGP full mesh.
		for x := 0; x < len(ids); x++ {
			for y := x + 1; y < len(ids); y++ {
				mustAdd(nw, ids[x], ids[y], true)
			}
		}
	}

	// Inter-AS links between random border routers.
	for _, l := range asGraph.Links() {
		a := routersOf[l.A][rng.Intn(len(routersOf[l.A]))]
		b := routersOf[l.B][rng.Intn(len(routersOf[l.B]))]
		if nw.HasLink(a, b) {
			// Both ASes are singletons already linked via an earlier
			// parallel AS edge; the simple-graph model collapses it.
			continue
		}
		mustAdd(nw, a, b, false)
	}
	return nw, nil
}

package topology

import (
	"fmt"
	"math"

	"bgpsim/internal/des"
)

// WaxmanSpec parameterizes the Waxman random-graph model: nodes u,v are
// connected with probability Alpha * exp(-d(u,v) / (Beta * L)) where L is
// the grid diagonal. One of the AS-level schemes BRITE offers.
type WaxmanSpec struct {
	N     int
	Alpha float64
	Beta  float64
}

// Waxman generates a connected Waxman graph with uniform placement.
func Waxman(spec WaxmanSpec, rng *des.RNG) (*Network, error) {
	if spec.N < 2 {
		return nil, fmt.Errorf("topology: waxman N=%d", spec.N)
	}
	if spec.Alpha <= 0 || spec.Alpha > 1 || spec.Beta <= 0 {
		return nil, fmt.Errorf("topology: waxman alpha=%v beta=%v", spec.Alpha, spec.Beta)
	}
	nw := NewNetwork(spec.N)
	PlaceUniform(nw, rng)
	l := nw.Grid() * math.Sqrt2
	for a := 0; a < spec.N; a++ {
		for b := a + 1; b < spec.N; b++ {
			d := nw.Node(a).Pos.Dist(nw.Node(b).Pos)
			p := spec.Alpha * math.Exp(-d/(spec.Beta*l))
			if rng.Float64() < p {
				mustAdd(nw, a, b, false)
			}
		}
	}
	if err := Connect(nw, rng); err != nil {
		return nil, err
	}
	return nw, nil
}

// BarabasiAlbertSpec parameterizes preferential attachment: each arriving
// node attaches M links to existing nodes chosen with probability
// proportional to their degree.
type BarabasiAlbertSpec struct {
	N int
	M int
}

// BarabasiAlbert generates an Albert–Barabási preferential-attachment
// graph with uniform placement.
func BarabasiAlbert(spec BarabasiAlbertSpec, rng *des.RNG) (*Network, error) {
	if spec.N < 2 || spec.M < 1 || spec.M >= spec.N {
		return nil, fmt.Errorf("topology: BA N=%d M=%d", spec.N, spec.M)
	}
	nw := NewNetwork(spec.N)
	PlaceUniform(nw, rng)
	// Seed clique of M+1 nodes.
	seed := spec.M + 1
	for a := 0; a < seed; a++ {
		for b := a + 1; b < seed; b++ {
			mustAdd(nw, a, b, false)
		}
	}
	// Repeated-endpoint list implements degree-proportional choice.
	var endpoints []int
	for a := 0; a < seed; a++ {
		for k := 0; k < nw.Degree(a); k++ {
			endpoints = append(endpoints, a)
		}
	}
	for v := seed; v < spec.N; v++ {
		added := 0
		for attempt := 0; added < spec.M && attempt < 100*spec.M; attempt++ {
			t := endpoints[rng.Intn(len(endpoints))]
			if t == v || nw.HasLink(v, t) {
				continue
			}
			mustAdd(nw, v, t, false)
			endpoints = append(endpoints, v, t)
			added++
		}
	}
	if err := Connect(nw, rng); err != nil {
		return nil, err
	}
	return nw, nil
}

// GLPSpec parameterizes the Generalized Linear Preference model of Bu and
// Towsley: with probability P, M new links are added between existing
// nodes; otherwise a new node joins with M links. Endpoints are chosen
// with probability proportional to (degree - Beta), Beta < 1.
type GLPSpec struct {
	N    int
	M    int
	P    float64
	Beta float64
}

// GLP generates a Bu–Towsley GLP graph with uniform placement.
func GLP(spec GLPSpec, rng *des.RNG) (*Network, error) {
	// The seed core has M+1 nodes, so M < N keeps it inside the network.
	if spec.N < 3 || spec.M < 1 || spec.M >= spec.N {
		return nil, fmt.Errorf("topology: GLP N=%d M=%d", spec.N, spec.M)
	}
	if spec.P < 0 || spec.P >= 1 || spec.Beta >= 1 {
		return nil, fmt.Errorf("topology: GLP P=%v Beta=%v", spec.P, spec.Beta)
	}
	nw := NewNetwork(spec.N)
	PlaceUniform(nw, rng)
	// Seed: a small connected core.
	core := spec.M + 1
	if core < 3 {
		core = 3
	}
	for a := 1; a < core; a++ {
		mustAdd(nw, a-1, a, false)
	}
	grown := core

	pick := func(exclude int) int {
		total := 0.0
		for i := 0; i < grown; i++ {
			if i == exclude {
				continue
			}
			total += float64(nw.Degree(i)) - spec.Beta
		}
		u := rng.Float64() * total
		acc := 0.0
		for i := 0; i < grown; i++ {
			if i == exclude {
				continue
			}
			acc += float64(nw.Degree(i)) - spec.Beta
			if u < acc {
				return i
			}
		}
		if exclude == grown-1 {
			return grown - 2
		}
		return grown - 1
	}

	for grown < spec.N {
		if rng.Float64() < spec.P {
			// Add M links between existing nodes.
			for k := 0; k < spec.M; k++ {
				for attempt := 0; attempt < 100; attempt++ {
					a := pick(-1)
					b := pick(a)
					if a != b && !nw.HasLink(a, b) {
						mustAdd(nw, a, b, false)
						break
					}
				}
			}
			continue
		}
		// Add a new node with M links.
		v := grown
		grown++
		added := 0
		for attempt := 0; added < spec.M && attempt < 100*spec.M; attempt++ {
			t := pick(v)
			if t != v && !nw.HasLink(v, t) {
				mustAdd(nw, v, t, false)
				added++
			}
		}
	}
	if err := Connect(nw, rng); err != nil {
		return nil, err
	}
	return nw, nil
}

// SkewedNetwork builds a connected AS-level network from a SkewedSpec with
// uniform grid placement. This is the workhorse for Figs 1–12.
func SkewedNetwork(spec SkewedSpec, rng *des.RNG) (*Network, error) {
	degrees, err := spec.Degrees(rng)
	if err != nil {
		return nil, err
	}
	nw, err := FromDegreeSequence(degrees, rng)
	if err != nil {
		return nil, err
	}
	PlaceUniform(nw, rng)
	return nw, nil
}

// InternetLikeNetwork builds a connected AS-level network whose degree
// distribution matches the paper's reduction of measured Internet AS
// connectivity (heavy tail capped at maxDegree, mean avgDegree).
func InternetLikeNetwork(n int, avgDegree float64, maxDegree int, rng *des.RNG) (*Network, error) {
	degrees, err := InternetLikeDegrees(n, avgDegree, maxDegree, rng)
	if err != nil {
		return nil, err
	}
	nw, err := FromDegreeSequence(degrees, rng)
	if err != nil {
		return nil, err
	}
	PlaceUniform(nw, rng)
	return nw, nil
}

package topology

import "bgpsim/internal/des"

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

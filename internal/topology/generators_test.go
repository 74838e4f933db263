package topology

import (
	"bytes"
	"math"
	"testing"

	"bgpsim/internal/des"
)

func TestSkewedNetworkEndToEnd(t *testing.T) {
	rng := des.NewRNG(4)
	nw, err := SkewedNetwork(Skewed7030(120), rng)
	if err != nil {
		t.Fatal(err)
	}
	if !nw.Connected() {
		t.Fatal("not connected")
	}
	if math.Abs(nw.AvgDegree()-3.8) > 0.4 {
		t.Errorf("avg degree = %.2f", nw.AvgDegree())
	}
	assertPlacedOnGrid(t, nw)
}

func TestInternetLikeNetworkEndToEnd(t *testing.T) {
	rng := des.NewRNG(5)
	nw, err := InternetLikeNetwork(120, 3.4, 40, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !nw.Connected() {
		t.Fatal("not connected")
	}
	if nw.MaxDegree() > 40 {
		t.Errorf("max degree %d exceeds cap", nw.MaxDegree())
	}
}

func TestSpecBuildAllKinds(t *testing.T) {
	for _, kind := range Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			rng := des.NewRNG(6)
			spec := Spec{Kind: kind, N: 60}
			if kind == KindRealistic {
				spec.MaxASSize = 5 // keep the test fast
			}
			nw, err := spec.Build(rng)
			if err != nil {
				t.Fatal(err)
			}
			if !nw.Connected() {
				t.Error("not connected")
			}
		})
	}
}

func TestSpecBuildUnknownKind(t *testing.T) {
	rng := des.NewRNG(1)
	if _, err := (Spec{Kind: "nope", N: 10}).Build(rng); err == nil {
		t.Error("unknown kind accepted")
	}
}

// TestSpecBuildRejectsNonFinite covers what only Spec.Validate catches:
// Build ignores the relationship fields, and a NaN slips past every
// range comparison, so a non-finite ratio is refused there or nowhere.
func TestSpecBuildRejectsNonFinite(t *testing.T) {
	for _, s := range []Spec{
		{Kind: KindInternetLike, N: 20, Relationships: RelModeInfer, RelationshipRatio: math.NaN()},
		{Kind: KindRealistic, N: 20, Relationships: RelModeInfer, RelationshipRatio: math.Inf(1)},
		{Kind: KindSkewed7030, N: 20, Relationships: "sibling"},
	} {
		if _, err := s.Build(des.NewRNG(1)); err == nil {
			t.Errorf("invalid spec accepted: %+v", s)
		}
	}
}

func TestSpecBuildDeterministicForSeed(t *testing.T) {
	build := func() *Network {
		rng := des.NewRNG(42)
		nw, err := Spec{Kind: KindSkewed7030, N: 60}.Build(rng)
		if err != nil {
			t.Fatal(err)
		}
		return nw
	}
	a, b := build(), build()
	var bufA, bufB bytes.Buffer
	if err := a.WriteJSON(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSON(&bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Error("same seed produced different topologies")
	}
}

func assertPlacedOnGrid(t *testing.T, nw *Network) {
	t.Helper()
	g := nw.Grid()
	distinct := make(map[Point]struct{})
	for i := 0; i < nw.NumNodes(); i++ {
		p := nw.Node(i).Pos
		if p.X < 0 || p.X > g || p.Y < 0 || p.Y > g {
			t.Fatalf("node %d at %v outside grid", i, p)
		}
		distinct[p] = struct{}{}
	}
	if len(distinct) < nw.NumNodes()/2 {
		t.Errorf("only %d distinct positions for %d nodes", len(distinct), nw.NumNodes())
	}
}

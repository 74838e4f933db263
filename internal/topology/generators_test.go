package topology

import (
	"bytes"
	"math"
	"testing"

	"bgpsim/internal/des"
)

func TestWaxmanConnectedAndPlaced(t *testing.T) {
	rng := des.NewRNG(1)
	nw, err := Waxman(WaxmanSpec{N: 100, Alpha: 0.15, Beta: 0.2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !nw.Connected() {
		t.Fatal("not connected")
	}
	if nw.NumNodes() != 100 {
		t.Fatalf("nodes = %d", nw.NumNodes())
	}
	assertPlacedOnGrid(t, nw)
}

func TestWaxmanValidation(t *testing.T) {
	rng := des.NewRNG(1)
	for _, s := range []WaxmanSpec{
		{N: 1, Alpha: 0.15, Beta: 0.2},
		{N: 100, Alpha: 0, Beta: 0.2},
		{N: 100, Alpha: 1.5, Beta: 0.2},
		{N: 100, Alpha: 0.15, Beta: 0},
	} {
		if _, err := Waxman(s, rng); err == nil {
			t.Errorf("invalid spec accepted: %+v", s)
		}
	}
}

func TestBarabasiAlbertDegreesAndConnectivity(t *testing.T) {
	rng := des.NewRNG(2)
	nw, err := BarabasiAlbert(BarabasiAlbertSpec{N: 200, M: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !nw.Connected() {
		t.Fatal("not connected")
	}
	// Average degree ≈ 2M.
	if math.Abs(nw.AvgDegree()-4) > 0.5 {
		t.Errorf("avg degree = %.2f, want ≈ 4", nw.AvgDegree())
	}
	// Preferential attachment must produce hubs well above the average.
	if nw.MaxDegree() < 10 {
		t.Errorf("max degree = %d; expected hubs from preferential attachment", nw.MaxDegree())
	}
}

func TestBarabasiAlbertValidation(t *testing.T) {
	rng := des.NewRNG(1)
	for _, s := range []BarabasiAlbertSpec{{N: 1, M: 1}, {N: 10, M: 0}, {N: 10, M: 10}} {
		if _, err := BarabasiAlbert(s, rng); err == nil {
			t.Errorf("invalid spec accepted: %+v", s)
		}
	}
}

func TestGLPProducesHeavyTail(t *testing.T) {
	rng := des.NewRNG(3)
	nw, err := GLP(GLPSpec{N: 200, M: 1, P: 0.45, Beta: 0.64}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !nw.Connected() {
		t.Fatal("not connected")
	}
	if nw.NumNodes() != 200 {
		t.Fatalf("nodes = %d", nw.NumNodes())
	}
	if nw.MaxDegree() < 8 {
		t.Errorf("max degree = %d; expected heavy tail", nw.MaxDegree())
	}
}

func TestGLPValidation(t *testing.T) {
	rng := des.NewRNG(1)
	for _, s := range []GLPSpec{
		{N: 2, M: 1, P: 0.4, Beta: 0.5},
		{N: 100, M: 0, P: 0.4, Beta: 0.5},
		{N: 100, M: 1, P: 1.0, Beta: 0.5},
		{N: 100, M: 1, P: -0.1, Beta: 0.5},
		{N: 100, M: 1, P: 0.4, Beta: 1.0},
		{N: 5, M: 10, P: 0.4, Beta: 0.5}, // seed core larger than the network
	} {
		if _, err := GLP(s, rng); err == nil {
			t.Errorf("invalid spec accepted: %+v", s)
		}
	}
}

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
// a NaN slips past every range comparison the family constructors make.
func TestSpecBuildRejectsNonFinite(t *testing.T) {
	for _, s := range []Spec{
		{Kind: KindWaxman, N: 20, WaxmanBeta: math.NaN()},
		{Kind: KindGLP, N: 20, GLPBeta: math.Inf(-1)},
		{Kind: KindInternetLike, N: 20, AvgDegree: math.NaN()},
		{Kind: KindRealistic, N: 20, SizeAlpha: math.Inf(1)},
		{Kind: KindSkewed7030, N: 20, Relationships: "sibling"},
	} {
		if _, err := s.Build(des.NewRNG(1)); err == nil {
			t.Errorf("invalid spec accepted: %+v", s)
		}
	}
}

func TestSpecBuildCustomSkewed(t *testing.T) {
	rng := des.NewRNG(9)
	spec := Spec{N: 60, Skewed: &SkewedSpec{FracLow: 0.5, LowMin: 1, LowMax: 2, HighMin: 4, HighMax: 4}}
	nw, err := spec.Build(rng)
	if err != nil {
		t.Fatal(err)
	}
	if nw.NumNodes() != 60 {
		t.Errorf("nodes = %d, want 60 (N inherited)", nw.NumNodes())
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

package failure

import (
	"sort"
	"testing"

	"bgpsim/internal/des"
	"bgpsim/internal/topology"
)

func grid5x5(t *testing.T) *topology.Network {
	t.Helper()
	nw := topology.NewNetwork(25)
	for i := 0; i < 25; i++ {
		nw.SetPos(i, topology.Point{X: float64(i%5) * 250, Y: float64(i/5) * 250})
	}
	return nw
}

func TestValidate(t *testing.T) {
	good := []Spec{
		Geographic(0.05),
		{Kind: KindRandom, Count: 3},
		{Kind: KindEdge, Fraction: 0.1},
	}
	for i, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("good case %d rejected: %v", i, err)
		}
	}
	bad := []Spec{
		{Kind: "volcano", Fraction: 0.1},
		{Kind: KindGeographic},                          // neither set
		{Kind: KindGeographic, Fraction: 0.1, Count: 2}, // both set
		{Kind: KindGeographic, Fraction: 1.5},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad case %d accepted: %+v", i, s)
		}
	}
}

func TestCountFor(t *testing.T) {
	if got := Geographic(0.05).CountFor(120); got != 6 {
		t.Errorf("5%% of 120 = %d, want 6", got)
	}
	if got := Geographic(0.001).CountFor(120); got != 1 {
		t.Errorf("tiny fraction = %d, want 1 (minimum)", got)
	}
	if got := (Spec{Kind: KindRandom, Count: 500}).CountFor(120); got != 120 {
		t.Errorf("oversized count = %d, want clamped to 120", got)
	}
	if got := Geographic(1).CountFor(120); got != 120 {
		t.Errorf("full failure = %d", got)
	}
}

func TestGeographicSelectsCenterDisc(t *testing.T) {
	nw := grid5x5(t)
	rng := des.NewRNG(1)
	got, err := Select(nw, Spec{Kind: KindGeographic, Count: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Node 12 sits at (500,500), the exact grid center.
	if len(got) != 1 || got[0] != 12 {
		t.Errorf("center failure = %v, want [12]", got)
	}
	got, err = Select(nw, Spec{Kind: KindGeographic, Count: 5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{7, 11, 12, 13, 17} // center plus the 4-neighborhood
	if len(got) != 5 {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("disc = %v, want %v", got, want)
		}
	}
}

func TestGeographicCustomCenter(t *testing.T) {
	nw := grid5x5(t)
	rng := des.NewRNG(1)
	c := topology.Point{X: 0, Y: 0}
	got, err := Select(nw, Spec{Kind: KindGeographic, Count: 1, Center: &c}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Errorf("corner-centered failure = %v, want [0]", got)
	}
}

func TestEdgeSelectsCorner(t *testing.T) {
	nw := grid5x5(t)
	rng := des.NewRNG(1)
	got, err := Select(nw, Spec{Kind: KindEdge, Count: 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range got {
		p := nw.Node(id).Pos
		if p.X > 250 || p.Y > 250 {
			t.Errorf("edge failure picked central node %d at %v", id, p)
		}
	}
}

func TestRandomSelectsExactCountNoDuplicates(t *testing.T) {
	nw := grid5x5(t)
	rng := des.NewRNG(7)
	got, err := Select(nw, Spec{Kind: KindRandom, Count: 10}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("len = %d", len(got))
	}
	if !sort.IntsAreSorted(got) {
		t.Error("result not sorted")
	}
	seen := make(map[int]bool)
	for _, id := range got {
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
		if id < 0 || id >= 25 {
			t.Fatalf("id %d out of range", id)
		}
	}
}

func TestRandomIsSeedDeterministic(t *testing.T) {
	nw := grid5x5(t)
	a, _ := Select(nw, Spec{Kind: KindRandom, Count: 5}, des.NewRNG(3))
	b, _ := Select(nw, Spec{Kind: KindRandom, Count: 5}, des.NewRNG(3))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed gave different selections")
		}
	}
}

func TestSelectRejectsInvalidSpec(t *testing.T) {
	nw := grid5x5(t)
	if _, err := Select(nw, Spec{Kind: "nope", Count: 1}, des.NewRNG(1)); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestGeographicFractionOnPaperScale(t *testing.T) {
	rng := des.NewRNG(5)
	nw, err := topology.SkewedNetwork(topology.Skewed7030(120), rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{0.01, 0.05, 0.10, 0.20} {
		got, err := Select(nw, Geographic(frac), rng)
		if err != nil {
			t.Fatal(err)
		}
		want := Geographic(frac).CountFor(120)
		if len(got) != want {
			t.Errorf("fraction %v selected %d nodes, want %d", frac, len(got), want)
		}
	}
}

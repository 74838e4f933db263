package des

import (
	"testing"
	"testing/quick"
	"time"
)

func TestRNGDeterministicForSeed(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds agreed %d/100 times", same)
	}
}

func TestSplitIsStableAndIndependent(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	sa, sb := a.Split("topology"), b.Split("topology")
	for i := 0; i < 100; i++ {
		if sa.Int63() != sb.Int63() {
			t.Fatal("Split with same label from same parent state diverged")
		}
	}
	c := NewRNG(7)
	other := c.Split("failure")
	d := NewRNG(7)
	topo := d.Split("topology")
	if other.Int63() == topo.Int63() {
		t.Log("warning: first draws collide; acceptable but unexpected")
	}
}

func TestUniformDurationBounds(t *testing.T) {
	g := NewRNG(3)
	lo, hi := time.Millisecond, 30*time.Millisecond
	for i := 0; i < 10000; i++ {
		d := g.UniformDuration(lo, hi)
		if d < lo || d > hi {
			t.Fatalf("UniformDuration = %v outside [%v,%v]", d, lo, hi)
		}
	}
}

func TestUniformDurationDegenerate(t *testing.T) {
	g := NewRNG(3)
	if d := g.UniformDuration(time.Second, time.Second); d != time.Second {
		t.Fatalf("UniformDuration(1s,1s) = %v", d)
	}
}

func TestUniformDurationPanicsOnInvertedRange(t *testing.T) {
	g := NewRNG(3)
	defer func() {
		if recover() == nil {
			t.Error("UniformDuration(hi<lo) did not panic")
		}
	}()
	g.UniformDuration(time.Second, 0)
}

func TestUniformDurationMean(t *testing.T) {
	g := NewRNG(11)
	lo, hi := time.Millisecond, 30*time.Millisecond
	var sum time.Duration
	const n = 200000
	for i := 0; i < n; i++ {
		sum += g.UniformDuration(lo, hi)
	}
	mean := sum / n
	want := (lo + hi) / 2
	if mean < want-time.Millisecond || mean > want+time.Millisecond {
		t.Errorf("mean = %v, want ≈ %v", mean, want)
	}
}

func TestJitterWithinRFC1771Band(t *testing.T) {
	g := NewRNG(5)
	base := 30 * time.Second
	for i := 0; i < 10000; i++ {
		j := g.Jitter(base)
		if j < time.Duration(float64(base)*0.75) || j > base {
			t.Fatalf("Jitter(%v) = %v outside [0.75*base, base]", base, j)
		}
	}
}

func TestJitterZeroAndNegative(t *testing.T) {
	g := NewRNG(5)
	if g.Jitter(0) != 0 {
		t.Error("Jitter(0) != 0")
	}
	if g.Jitter(-time.Second) != 0 {
		t.Error("Jitter(negative) != 0")
	}
}

func TestParetoBounds(t *testing.T) {
	g := NewRNG(9)
	for i := 0; i < 10000; i++ {
		x := g.Pareto(1.2, 1, 100)
		if x < 1 || x > 100 {
			t.Fatalf("Pareto = %v outside [1,100]", x)
		}
	}
}

func TestParetoIsHeavyTailed(t *testing.T) {
	g := NewRNG(13)
	small, large := 0, 0
	for i := 0; i < 10000; i++ {
		x := g.Pareto(1.2, 1, 100)
		if x < 4 {
			small++
		}
		if x > 50 {
			large++
		}
	}
	if small < 6000 {
		t.Errorf("only %d/10000 draws < 4; expected mass at the low end", small)
	}
	if large == 0 {
		t.Error("no draws > 50; expected a heavy tail")
	}
}

func TestParetoPanicsOnInvalidParams(t *testing.T) {
	g := NewRNG(9)
	for _, c := range []struct{ alpha, lo, hi float64 }{
		{0, 1, 10}, {1, 0, 10}, {1, 10, 1}, {-1, 1, 10},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Pareto(%v,%v,%v) did not panic", c.alpha, c.lo, c.hi)
				}
			}()
			g.Pareto(c.alpha, c.lo, c.hi)
		}()
	}
}

// Property: jitter never increases a timer and never cuts more than 25%.
func TestPropertyJitterBand(t *testing.T) {
	g := NewRNG(17)
	f := func(ms uint32) bool {
		base := time.Duration(ms) * time.Millisecond
		j := g.Jitter(base)
		return j <= base && float64(j) >= 0.75*float64(base)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestReseedInPlaceMatchesNewRNG pins Reseed: after any amount of
// consumption, of every kind of draw, a reseeded stream is the stream
// NewRNG(seed) starts, and reseeding allocates nothing.
func TestReseedInPlaceMatchesNewRNG(t *testing.T) {
	g := NewRNG(7)
	for i := 0; i < 1000; i++ {
		g.Int63()
		g.Float64()
		g.ExpFloat64()
		g.Jitter(time.Second)
	}
	g.Perm(17)
	for _, seed := range []int64{7, 0, -3, 1 << 40} {
		g.Reseed(seed)
		fresh := NewRNG(seed)
		for i := 0; i < 2000; i++ {
			if a, b := g.Int63(), fresh.Int63(); a != b {
				t.Fatalf("seed %d draw %d: reseeded %d, fresh %d", seed, i, a, b)
			}
		}
		if a, b := g.UniformDuration(0, time.Hour), fresh.UniformDuration(0, time.Hour); a != b {
			t.Fatalf("seed %d: UniformDuration %v vs %v", seed, a, b)
		}
		if a, b := g.SplitSeed("x"), fresh.SplitSeed("x"); a != b {
			t.Fatalf("seed %d: SplitSeed %d vs %d", seed, a, b)
		}
	}
	if n := testing.AllocsPerRun(100, func() { g.Reseed(42) }); n != 0 {
		t.Errorf("Reseed allocates %v objects per call, want 0", n)
	}
}

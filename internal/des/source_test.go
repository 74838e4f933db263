package des

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// sourceDraws is how far each stream is compared: past the 607-entry
// vector, so every seeded entry is read and the lagged feedback wraps.
const sourceDraws = 1500

// TestSourceMatchesMathRand pins the stream contract: for every seed the
// source's draws equal those of math/rand's default source. The edge
// seeds cover the reduction mod 2³¹−1 (zero, its multiples, negatives,
// the int64 extremes); 10 000 more come from an independent stream.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, 2, 89482311,
		math.MaxInt32, -math.MaxInt32, math.MaxInt32 + 1, -(math.MaxInt32 + 1),
		2 * math.MaxInt32, 1 << 31, 1 << 32, -(1 << 31),
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1,
	}
	pick := rand.New(rand.NewSource(20091))
	for len(seeds) < 17+10000 {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	var got source
	for _, seed := range seeds {
		got.Seed(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < sourceDraws; i++ {
			if i%2 == 0 {
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d draw %d: Uint64 %d, math/rand %d", seed, i, g, w)
				}
			} else if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d draw %d: Int63 %d, math/rand %d", seed, i, g, w)
			}
		}
	}
}

// TestRNGMatchesMathRand checks the wrapper end to end: every helper
// draws what it would over rand.New(rand.NewSource(seed)).
func TestRNGMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -7, math.MaxInt64} {
		g, want := NewRNG(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < sourceDraws; i++ {
			if a, b := g.Intn(1000), want.Intn(1000); a != b {
				t.Fatalf("seed %d draw %d: Intn %d vs %d", seed, i, a, b)
			}
			if a, b := g.Float64(), want.Float64(); a != b {
				t.Fatalf("seed %d draw %d: Float64 %v vs %v", seed, i, a, b)
			}
			if a, b := g.ExpFloat64(), want.ExpFloat64(); a != b {
				t.Fatalf("seed %d draw %d: ExpFloat64 %v vs %v", seed, i, a, b)
			}
		}
		x, y := make([]int, 50), make([]int, 50)
		for i := range x {
			x[i], y[i] = i, i
		}
		g.Shuffle(len(x), func(i, j int) { x[i], x[j] = x[j], x[i] })
		want.Shuffle(len(y), func(i, j int) { y[i], y[j] = y[j], y[i] })
		for i := range x {
			if x[i] != y[i] {
				t.Fatalf("seed %d: Shuffle differs at %d", seed, i)
			}
		}
		if a, b := g.UniformDuration(0, time.Hour), time.Duration(want.Int63n(int64(time.Hour)+1)); a != b {
			t.Fatalf("seed %d: UniformDuration %v vs %v", seed, a, b)
		}
	}
}

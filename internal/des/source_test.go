package des

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
	"unsafe"
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

// opsMatchMathRand runs ops, a byte-coded sequence of draws and reseeds,
// on a stream seeded with seed and on rand.New(rand.NewSource(seed)),
// and reports the first draw at which they differ. The low three bits
// of an op pick what it does, the rest parameterize it.
func opsMatchMathRand(seed int64, ops []byte) error {
	g, want := NewRNG(seed), rand.New(rand.NewSource(seed))
	for i, op := range ops {
		arg := int(op >> 3)
		switch op & 7 {
		case 0:
			if a, b := g.Int63(), want.Int63(); a != b {
				return fmt.Errorf("op %d: Int63 %d, math/rand %d", i, a, b)
			}
		case 1:
			if a, b := g.r.Uint64(), want.Uint64(); a != b {
				return fmt.Errorf("op %d: Uint64 %d, math/rand %d", i, a, b)
			}
		case 2:
			if a, b := g.Intn(arg+1), want.Intn(arg+1); a != b {
				return fmt.Errorf("op %d: Intn(%d) %d, math/rand %d", i, arg+1, a, b)
			}
		case 3:
			if a, b := g.Float64(), want.Float64(); a != b {
				return fmt.Errorf("op %d: Float64 %v, math/rand %v", i, a, b)
			}
		case 4:
			x, y := make([]int, arg), make([]int, arg)
			for k := range x {
				x[k], y[k] = k, k
			}
			g.Shuffle(arg, func(i, j int) { x[i], x[j] = x[j], x[i] })
			want.Shuffle(arg, func(i, j int) { y[i], y[j] = y[j], y[i] })
			for k := range x {
				if x[k] != y[k] {
					return fmt.Errorf("op %d: Shuffle(%d) differs at %d", i, arg, k)
				}
			}
		case 5:
			s := seed + int64(arg)
			g.Reseed(s)
			want = rand.New(rand.NewSource(s))
		case 6:
			if a, b := g.ExpFloat64(), want.ExpFloat64(); a != b {
				return fmt.Errorf("op %d: ExpFloat64 %v, math/rand %v", i, a, b)
			}
		case 7:
			// A draw count past the lazy draws in one op: a Perm fills.
			if a, b := g.Perm(arg), want.Perm(arg); fmt.Sprint(a) != fmt.Sprint(b) {
				return fmt.Errorf("op %d: Perm(%d) %v, math/rand %v", i, arg, a, b)
			}
		}
	}
	return nil
}

// TestLazySourceMatchesMathRand pins the lazy fill: at every draw count
// from 0 to lazyMax+2 — answered in closed form, the filling draw, and
// past it — every kind of draw equals math/rand's, on a fresh stream and
// on a filled stream reseeded back to lazy.
func TestLazySourceMatchesMathRand(t *testing.T) {
	kinds := []byte{0, 1, 2 | 9<<3, 3, 6}
	for _, seed := range []int64{0, 1, -7, 89482311, math.MaxInt64, math.MinInt64} {
		for m := 0; m <= lazyMax+2; m++ {
			for start := range kinds {
				var ops []byte
				for k := 0; k < m; k++ {
					ops = append(ops, kinds[(start+k)%len(kinds)])
				}
				// A filled stream reseeded back to lazy, then the same m
				// draws, then enough to fill and wrap the lagged feedback.
				ops = append(ops, 7|30<<3, 5|3<<3)
				for k := 0; k < m; k++ {
					ops = append(ops, kinds[(start+k)%len(kinds)])
				}
				ops = append(ops, 4|20<<3)
				for k := 0; k < sourceDraws; k++ {
					ops = append(ops, kinds[k%len(kinds)])
				}
				if err := opsMatchMathRand(seed, ops); err != nil {
					t.Fatalf("seed %d, %d draws first (kind %d first): %v", seed, m, start, err)
				}
			}
		}
	}
}

// TestSplitOfLazyParentMatchesFilled pins that a parent's lazy state is
// invisible to Split: at every parent draw count, splitting a lazy
// parent and the same parent forced to fill derives the same child.
func TestSplitOfLazyParentMatchesFilled(t *testing.T) {
	for _, seed := range []int64{1, 42, -3} {
		for m := 0; m <= lazyMax+2; m++ {
			lazy, filled := NewRNG(seed), NewRNG(seed)
			filled.src.fill()
			for k := 0; k < m; k++ {
				lazy.Int63()
				filled.Int63()
			}
			a, b := lazy.Split("topology"), filled.Split("topology")
			for k := 0; k < sourceDraws; k++ {
				if x, y := a.Int63(), b.Int63(); x != y {
					t.Fatalf("seed %d, %d parent draws, child draw %d: %d vs %d", seed, m, k, x, y)
				}
			}
		}
	}
}

// TestSplitHoldsOneState pins what lazy filling saves: a parent drawn
// from only to Split never allocates its 4.9 KB state, so
// NewRNG(s).Split(l) with a child that fills costs three allocations
// (parent, child, the child's state) and one state's worth of bytes.
func TestSplitHoldsOneState(t *testing.T) {
	parent := NewRNG(7)
	child := parent.Split("topology")
	for k := 0; k <= lazyMax; k++ {
		child.Int63()
	}
	if parent.src.vec != nil || child.src.vec == nil {
		t.Fatalf("parent filled %v, child filled %v; want false, true", parent.src.vec != nil, child.src.vec != nil)
	}
	split := func() {
		c := NewRNG(7).Split("topology")
		for k := 0; k <= lazyMax; k++ {
			c.Int63()
		}
	}
	if n := testing.AllocsPerRun(100, split); n != 3 {
		t.Errorf("NewRNG(s).Split(l) and a fill: %v allocations, want 3", n)
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		split()
	}
	runtime.ReadMemStats(&after)
	state := int(unsafe.Sizeof([rngLen]int64{}))
	if per := int(after.TotalAlloc-before.TotalAlloc) / runs; per >= 2*state {
		t.Errorf("NewRNG(s).Split(l) and a fill: %d B, want one %d B state, not two", per, state)
	}
}

// FuzzSourceMatchesMathRand checks any seed and any sequence of draws
// and reseeds (see opsMatchMathRand) against math/rand.
func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(int64(-7), []byte{0, 0, 0, 0, 0, 0, 5, 1, 1, 1, 1, 1, 1})
	f.Add(int64(math.MaxInt64), []byte{7 | 31<<3, 5, 3, 3, 3, 3, 3, 4 | 30<<3})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if err := opsMatchMathRand(seed, ops); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	})
}

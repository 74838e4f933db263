package topology

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"bgpsim/internal/des"
)

// worldDigest hashes everything a generated world is: node count, grid,
// every node's AS and position, and every adjacency list in stored order
// (neighbor order is part of the world — the simulator iterates it).
func worldDigest(h interface{ Write([]byte) (int, error) }, nw *Network) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(nw.NumNodes()))
	put(math.Float64bits(nw.Grid()))
	for i := 0; i < nw.NumNodes(); i++ {
		n := nw.Node(i)
		put(uint64(n.AS))
		put(math.Float64bits(n.Pos.X))
		put(math.Float64bits(n.Pos.Y))
		put(uint64(nw.Degree(i)))
		for _, nb := range nw.Neighbors(i) {
			v := uint64(nb.ID) << 1
			if nb.Internal {
				v |= 1
			}
			put(v)
		}
	}
}

// worldDigestSizes and worldDigestSeeds span the digest grid: every Kind
// at every size, seeds 1–20 each.
var worldDigestSizes = []int{20, 30, 120, 500}

const worldDigestSeeds = 20

// TestWorldDigest pins every generated network bit for bit against
// testdata/worlds.sha256, recorded before topology generation was
// rewritten for speed: one SHA-256 per (kind, n) over seeds 1–20, each
// world built by Spec.Build from des.NewRNG(seed). A build error is
// hashed as its message, so the pin covers failures too. A golden row no
// (kind, size) consumes fails the test, so a deleted family cannot leave
// its rows behind. On mismatch the test prints the lines the current
// code produces.
func TestWorldDigest(t *testing.T) {
	want := map[string]string{}
	f, err := os.Open("testdata/worlds.sha256")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 3 {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		key := fields[0] + " " + fields[1]
		if _, dup := want[key]; dup {
			t.Fatalf("duplicate golden row %q", key)
		}
		want[key] = fields[2]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	bad := 0
	for _, kind := range Kinds() {
		for _, n := range worldDigestSizes {
			h := sha256.New()
			for seed := int64(1); seed <= worldDigestSeeds; seed++ {
				nw, err := Spec{Kind: kind, N: n}.Build(des.NewRNG(seed))
				if err != nil {
					fmt.Fprintf(h, "error %d: %v", seed, err)
					continue
				}
				worldDigest(h, nw)
			}
			key := fmt.Sprintf("%s %d", kind, n)
			sum := fmt.Sprintf("%x", h.Sum(nil))
			fmt.Fprintf(&got, "%s %s\n", key, sum)
			if want[key] != sum {
				bad++
				t.Errorf("%s: digest %s, want %q", key, sum, want[key])
			}
			delete(want, key)
		}
	}
	for key := range want {
		bad++
		t.Errorf("golden row %q names no (kind, size) the test builds", key)
	}
	if bad > 0 {
		t.Logf("current digests:\n%s", got.String())
	}
}

// oldPowerLawGammaForAvg is the bisection PowerLawGammaForAvg ran before
// it learned to stop at the fixed point: exactly 100 halvings.
func oldPowerLawGammaForAvg(avg float64, min, max int) float64 {
	mean := func(gamma float64) float64 {
		num, den := 0.0, 0.0
		for d := min; d <= max; d++ {
			w := math.Pow(float64(d), -gamma)
			num += float64(d) * w
			den += w
		}
		return num / den
	}
	lo, hi := 0.01, 10.0
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if mean(mid) > avg {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// TestPowerLawGammaForAvgMatchesFullBisection pins the early exit: over a
// grid of targets and caps the returned exponent equals, bit for bit,
// the one 100 full bisection steps give.
func TestPowerLawGammaForAvgMatchesFullBisection(t *testing.T) {
	for _, max := range []int{2, 3, 5, 6, 10, 20, 40, 100, 166} {
		for k := 1; k < 24; k++ {
			avg := 1 + float64(max-1)*float64(k)/24
			got, err := PowerLawGammaForAvg(avg, 1, max)
			if err != nil {
				t.Fatalf("avg %v max %d: %v", avg, max, err)
			}
			if want := oldPowerLawGammaForAvg(avg, 1, max); got != want {
				t.Errorf("avg %v max %d: gamma %v, full bisection %v", avg, max, got, want)
			}
		}
	}
}

// oldPowerLawDegrees is PowerLawDegrees before the law became a value:
// it builds its weight table on every call and re-accumulates the
// running sum on every draw.
func oldPowerLawDegrees(n int, gamma float64, min, max int, rng *des.RNG) []int {
	weights := make([]float64, max-min+1)
	total := 0.0
	for d := min; d <= max; d++ {
		w := math.Pow(float64(d), -gamma)
		weights[d-min] = w
		total += w
	}
	degrees := make([]int, n)
	for i := range degrees {
		u := rng.Float64() * total
		acc := 0.0
		degrees[i] = max
		for d := min; d <= max; d++ {
			acc += weights[d-min]
			if u < acc {
				degrees[i] = d
				break
			}
		}
	}
	evenizeDegrees(degrees)
	return degrees
}

// TestPaperDegreeLawIsTheSolve holds the paper's degree law to what every
// Internet-like world solved for before it became a constant: the
// exponent literal is the bisection's result bit for bit, paperLaw's
// running sums are the ones the old weight loop accumulated, and over
// seeds 1–20 InternetLikeDegrees draws the old sequences, for the
// paper's (avg, max) and for two pairs that still solve.
func TestPaperDegreeLawIsTheSolve(t *testing.T) {
	gamma, err := PowerLawGammaForAvg(paperAvgDegree, 1, paperMaxDegree)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(paperGamma) != math.Float64bits(gamma) {
		t.Fatalf("paper exponent %x, solve gives %x", paperGamma, gamma)
	}
	if len(paperLaw.cum) != paperMaxDegree || paperLaw.min != 1 {
		t.Fatalf("paper law spans [%d, %d], want [1, %d]", paperLaw.min, paperLaw.min+len(paperLaw.cum)-1, paperMaxDegree)
	}
	total := 0.0
	for d := 1; d <= paperMaxDegree; d++ {
		total += math.Pow(float64(d), -gamma)
		if got := paperLaw.cum[d-1]; math.Float64bits(got) != math.Float64bits(total) {
			t.Errorf("running weight through degree %d: %x, old loop %x", d, got, total)
		}
	}
	for _, c := range []struct {
		avg float64
		max int
	}{{paperAvgDegree, paperMaxDegree}, {3.4, 39}, {3.5, 40}} {
		gamma, err := PowerLawGammaForAvg(c.avg, 1, c.max)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 20; seed++ {
			got, err := InternetLikeDegrees(500, c.avg, c.max, des.NewRNG(seed))
			if err != nil {
				t.Fatal(err)
			}
			if want := oldPowerLawDegrees(500, gamma, 1, c.max, des.NewRNG(seed)); !slices.Equal(got, want) {
				t.Errorf("(%v, %d) seed %d: degree sequence differs from the solved law's", c.avg, c.max, seed)
			}
		}
	}
}

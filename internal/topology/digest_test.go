package topology

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
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
// hashed as its message, so the pin covers failures too. On mismatch the
// test prints the lines the current code produces.
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
		want[fields[0]+" "+fields[1]] = fields[2]
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
		}
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

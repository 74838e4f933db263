package topology

import (
	"math"
	"testing"
	"testing/quick"

	"bgpsim/internal/des"
)

func TestSkewedPresetsMatchPaper(t *testing.T) {
	cases := []struct {
		name    string
		spec    SkewedSpec
		wantAvg float64
	}{
		{"70-30", Skewed7030(120), 3.8},
		{"50-50", Skewed5050(120), 3.8},
		{"85-15", Skewed8515(120), 3.8},
		{"50-50-dense", Skewed5050Dense(120), 7.6},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			rng := des.NewRNG(1)
			// Average over many draws: expected mean should match target.
			sum, count := 0, 0
			for trial := 0; trial < 50; trial++ {
				degs, err := c.spec.Degrees(rng)
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range degs {
					sum += d
					count++
				}
			}
			avg := float64(sum) / float64(count)
			if math.Abs(avg-c.wantAvg) > 0.25 {
				t.Errorf("mean degree = %.2f, want ≈ %.1f", avg, c.wantAvg)
			}
		})
	}
}

func TestSkewedDegreesClassMembership(t *testing.T) {
	rng := des.NewRNG(7)
	spec := Skewed7030(120)
	degs, err := spec.Degrees(rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(degs) != 120 {
		t.Fatalf("got %d degrees", len(degs))
	}
	low, high, other := 0, 0, 0
	for _, d := range degs {
		switch {
		case d >= 1 && d <= 4: // evenize may bump one low node by 1
			low++
		case d == 8 || d == 9:
			high++
		default:
			other++
		}
	}
	if other != 0 {
		t.Errorf("%d degrees outside both classes", other)
	}
	if low < 80 || low > 88 {
		t.Errorf("low-class count = %d, want ≈ 84", low)
	}
	if high < 32 || high > 40 {
		t.Errorf("high-class count = %d, want ≈ 36", high)
	}
}

func TestSkewedDegreeSumEven(t *testing.T) {
	rng := des.NewRNG(3)
	for trial := 0; trial < 100; trial++ {
		degs, err := Skewed7030(61).Degrees(rng) // odd N stresses evenize
		if err != nil {
			t.Fatal(err)
		}
		sum := 0
		for _, d := range degs {
			sum += d
		}
		if sum%2 != 0 {
			t.Fatalf("odd degree sum %d", sum)
		}
	}
}

func TestSkewedValidate(t *testing.T) {
	bad := []SkewedSpec{
		{N: 1, FracLow: 0.7, LowMin: 1, LowMax: 3, HighMin: 8, HighMax: 8},
		{N: 120, FracLow: 1.5, LowMin: 1, LowMax: 3, HighMin: 8, HighMax: 8},
		{N: 120, FracLow: 0.7, LowMin: 0, LowMax: 3, HighMin: 8, HighMax: 8},
		{N: 120, FracLow: 0.7, LowMin: 3, LowMax: 1, HighMin: 8, HighMax: 8},
		{N: 120, FracLow: 0.7, LowMin: 1, LowMax: 3, HighMin: 8, HighMax: 7},
		{N: 10, FracLow: 0.7, LowMin: 1, LowMax: 3, HighMin: 8, HighMax: 10},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid spec accepted: %+v", i, s)
		}
	}
	if err := Skewed7030(120).Validate(); err != nil {
		t.Errorf("valid preset rejected: %v", err)
	}
}

func TestFromDegreeSequenceRealizesExactDegrees(t *testing.T) {
	rng := des.NewRNG(5)
	degrees := []int{3, 3, 2, 2, 2, 2, 1, 1} // sum 16, realizable
	nw, err := FromDegreeSequence(degrees, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !nw.Connected() {
		t.Fatal("result not connected")
	}
	for i, want := range degrees {
		if got := nw.Degree(i); got != want && got != want-1 && got != want+1 {
			t.Errorf("node %d degree = %d, want %d (±1 repair tolerance)", i, got, want)
		}
	}
}

func TestFromDegreeSequenceRejectsBadInput(t *testing.T) {
	rng := des.NewRNG(5)
	if _, err := FromDegreeSequence([]int{1}, rng); err == nil {
		t.Error("single node accepted")
	}
	if _, err := FromDegreeSequence([]int{1, 2}, rng); err == nil {
		t.Error("odd sum accepted")
	}
	if _, err := FromDegreeSequence([]int{5, 1, 1, 1}, rng); err == nil {
		t.Error("degree >= n accepted")
	}
	if _, err := FromDegreeSequence([]int{-1, 1, 1, 1}, rng); err == nil {
		t.Error("negative degree accepted")
	}
}

func TestFromDegreeSequencePaperScale(t *testing.T) {
	rng := des.NewRNG(11)
	spec := Skewed7030(120)
	degrees, err := spec.Degrees(rng)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := FromDegreeSequence(degrees, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !nw.Connected() {
		t.Fatal("not connected")
	}
	if math.Abs(nw.AvgDegree()-3.8) > 0.4 {
		t.Errorf("avg degree = %.2f, want ≈ 3.8", nw.AvgDegree())
	}
	// No self-loops or duplicates possible by construction; verify degree
	// conservation within repair tolerance.
	deficit := 0
	for i, want := range degrees {
		deficit += abs(nw.Degree(i) - want)
	}
	if deficit > len(degrees)/10 {
		t.Errorf("total degree deviation %d too large", deficit)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestPowerLawGammaForAvg(t *testing.T) {
	gamma, err := PowerLawGammaForAvg(3.4, 1, 40)
	if err != nil {
		t.Fatal(err)
	}
	// Verify by computing the implied mean.
	num, den := 0.0, 0.0
	for d := 1; d <= 40; d++ {
		w := math.Pow(float64(d), -gamma)
		num += float64(d) * w
		den += w
	}
	if math.Abs(num/den-3.4) > 0.01 {
		t.Errorf("gamma %.3f gives mean %.3f, want 3.4", gamma, num/den)
	}
}

func TestPowerLawGammaForAvgRejectsOutOfRange(t *testing.T) {
	if _, err := PowerLawGammaForAvg(0.5, 1, 40); err == nil {
		t.Error("avg below min accepted")
	}
	if _, err := PowerLawGammaForAvg(41, 1, 40); err == nil {
		t.Error("avg above max accepted")
	}
}

func TestInternetLikeDegreesMatchPaperShape(t *testing.T) {
	rng := des.NewRNG(13)
	var all []int
	for trial := 0; trial < 30; trial++ {
		degs, err := InternetLikeDegrees(120, 3.4, 40, rng)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, degs...)
	}
	sum, below4, over := 0, 0, 0
	for _, d := range all {
		sum += d
		if d < 4 {
			below4++
		}
		if d > 40 {
			over++
		}
	}
	if over > 0 {
		t.Errorf("%d degrees exceed the cap 40", over)
	}
	avg := float64(sum) / float64(len(all))
	if math.Abs(avg-3.4) > 0.3 {
		t.Errorf("avg = %.2f, want ≈ 3.4", avg)
	}
	// Paper: "about 70% of the ASes were connected to less than 4 other ASes".
	frac := float64(below4) / float64(len(all))
	if frac < 0.55 || frac > 0.9 {
		t.Errorf("fraction with degree < 4 = %.2f, want ≈ 0.7", frac)
	}
}

func TestPowerLawDegreesValidation(t *testing.T) {
	rng := des.NewRNG(1)
	for _, c := range []struct {
		n, min, max int
		gamma       float64
	}{
		{1, 1, 40, 2}, {120, 0, 40, 2}, {120, 41, 40, 2}, {120, 1, 40, 0},
	} {
		if _, err := PowerLawDegrees(c.n, c.gamma, c.min, c.max, rng); err == nil {
			t.Errorf("invalid power-law params accepted: %+v", c)
		}
	}
}

// Property: any random realizable-ish degree sequence either errors or
// produces a simple connected graph with near-matching degrees.
func TestPropertyFromDegreeSequence(t *testing.T) {
	rng := des.NewRNG(17)
	f := func(seed int64) bool {
		local := des.NewRNG(seed)
		n := 10 + local.Intn(60)
		degrees := make([]int, n)
		for i := range degrees {
			degrees[i] = 1 + local.Intn(5)
		}
		evenizeDegrees(degrees)
		nw, err := FromDegreeSequence(degrees, rng)
		if err != nil {
			return true // rejection is allowed; silent corruption is not
		}
		if !nw.Connected() {
			return false
		}
		// Simplicity is enforced by AddLink; check degree tolerance.
		for i, want := range degrees {
			if abs(nw.Degree(i)-want) > 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// fromDegreeSequenceAllocs is what one build allocates whatever its size:
// the network (struct, nodes, adjacency headers), the adjacency slab, the
// stub and link-count slab, and the component search (seen, order,
// spans).
const fromDegreeSequenceAllocs = 8

// TestFromDegreeSequenceAllocsConstant pins that a build's allocation
// count does not grow with the network: no per-node adjacency growth, no
// per-pair link list, no per-round component buffers.
func TestFromDegreeSequenceAllocsConstant(t *testing.T) {
	for _, n := range []int{30, 500} {
		degrees, err := Skewed7030(n).Degrees(des.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		rng := des.NewRNG(5)
		for i := 0; i < 10; i++ { // fill the stream's state, so reseeding it allocates nothing
			rng.Int63()
		}
		got := testing.AllocsPerRun(20, func() {
			rng.Reseed(5)
			if _, err := FromDegreeSequence(degrees, rng); err != nil {
				t.Fatal(err)
			}
		})
		if got != fromDegreeSequenceAllocs {
			t.Errorf("%d nodes: %v allocations per build, want %d", n, got, fromDegreeSequenceAllocs)
		}
	}
}

// TestLinkIndexMatchesLinks pins linkIndex against the lists it stands
// in for, through a tour of swaps: linkAt(k) is Links()[k] and linkIn
// over a component is the list of its members' links to higher-numbered
// nodes, after every change the generator makes through the index.
func TestLinkIndexMatchesLinks(t *testing.T) {
	rng := des.NewRNG(3)
	degrees, err := Skewed7030(60).Degrees(rng)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := FromDegreeSequence(degrees, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := newLinkIndex(nw, make([]int, nw.NumNodes()))
	check := func(step int) {
		links := nw.Links()
		for k, want := range links {
			if got := x.linkAt(k); got != want {
				t.Fatalf("step %d: linkAt(%d) = %v, Links()[%d] = %v", step, k, got, k, want)
			}
		}
		for _, comp := range nw.Components() {
			var want []Neighbor2
			for _, v := range comp {
				want = nw.appendLinksAt(want, v)
			}
			if got := x.count(comp); got != len(want) {
				t.Fatalf("step %d: count %d, %d links", step, got, len(want))
			}
			for k := range want {
				if got := x.linkIn(comp, k); got != want[k] {
					t.Fatalf("step %d: linkIn(%d) = %v, want %v", step, k, got, want[k])
				}
			}
		}
	}
	check(0)
	swaps := 0
	for step := 1; step <= 200; step++ {
		a, b := rng.Intn(nw.NumNodes()), rng.Intn(nw.NumNodes())
		if a == b {
			continue
		}
		if nw.HasLink(a, b) {
			// Cuts too, so components split and the counts fall as well
			// as rise.
			x.remove(a, b)
		} else if trySwapIn(x, a, b, rng) {
			swaps++
		}
		check(step)
	}
	if swaps < 50 {
		t.Errorf("only %d swaps in the tour", swaps)
	}
}

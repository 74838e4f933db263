package churn

import (
	"reflect"
	"testing"
	"time"

	"bgpsim/internal/des"
	"bgpsim/internal/topology"
)

// Expansion is pure RNG arithmetic on simulated time — no wall clock, no
// time.Sleep — so these tests drive the Poisson arrival generator with
// seeded streams ("fake clock") and assert on the stream structure
// directly.

func testNet(t *testing.T, n int) *topology.Network {
	t.Helper()
	net, err := topology.Spec{Kind: topology.KindSkewed7030, N: n}.Build(des.NewRNG(7))
	if err != nil {
		t.Fatalf("build topology: %v", err)
	}
	return net
}

func TestExpandDeterministic(t *testing.T) {
	net := testNet(t, 30)
	specs := []Spec{
		{Kind: PoissonLinkFlap, Rate: 0.5, Duration: 60 * time.Second, HoldMin: 2 * time.Second, HoldMax: 8 * time.Second},
		{Kind: PoissonNodeFail, Rate: 0.2, Duration: 90 * time.Second, HoldMin: 5 * time.Second, HoldMax: 5 * time.Second},
		{Kind: RollingOutage, Regions: 4, Period: 20 * time.Second, Fraction: 0.1, HoldMin: 5 * time.Second, HoldMax: 10 * time.Second},
		{Kind: FlapCycle, Cycles: 5, Period: 10 * time.Second, HoldMin: 1 * time.Second, HoldMax: 4 * time.Second},
	}
	for _, spec := range specs {
		a, err := Expand(net, spec, des.NewRNG(42))
		if err != nil {
			t.Fatalf("%s: %v", spec.Kind, err)
		}
		b, err := Expand(net, spec, des.NewRNG(42))
		if err != nil {
			t.Fatalf("%s: %v", spec.Kind, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: expansion not deterministic per (seed, spec)", spec.Kind)
		}
		c, err := Expand(net, spec, des.NewRNG(43))
		if err != nil {
			t.Fatalf("%s: %v", spec.Kind, err)
		}
		if reflect.DeepEqual(a, c) && len(a) > 0 && spec.Kind != RollingOutage {
			t.Errorf("%s: different seeds produced identical streams", spec.Kind)
		}
	}
}

func TestExpandPoissonStructure(t *testing.T) {
	net := testNet(t, 30)
	spec := Spec{Kind: PoissonLinkFlap, Rate: 0.5, Duration: 120 * time.Second,
		HoldMin: 2 * time.Second, HoldMax: 8 * time.Second}
	events, err := Expand(net, spec, des.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 || len(events)%2 != 0 {
		t.Fatalf("want a non-empty even event count (down/up pairs), got %d", len(events))
	}
	downs := 0
	for i, ev := range events {
		if i > 0 && ev.At < events[i-1].At {
			t.Fatalf("events not sorted: %v after %v", ev.At, events[i-1].At)
		}
		switch ev.Kind {
		case EventLinkDown:
			downs++
			if ev.At >= spec.Duration {
				t.Errorf("arrival at %v outside horizon %v", ev.At, spec.Duration)
			}
		case EventLinkUp:
		default:
			t.Errorf("unexpected kind %v in link-flap stream", ev.Kind)
		}
		if len(ev.Links) != 1 {
			t.Errorf("event %d: want exactly one link, got %d", i, len(ev.Links))
		}
	}
	if downs != len(events)/2 {
		t.Errorf("want %d downs, got %d", len(events)/2, downs)
	}
}

// TestExpandPoissonRate pins the arrival generator's statistics: over a
// long horizon the arrival count concentrates around Rate×Duration.
func TestExpandPoissonRate(t *testing.T) {
	net := testNet(t, 20)
	spec := Spec{Kind: PoissonNodeFail, Rate: 2, Duration: 500 * time.Second,
		HoldMin: time.Second, HoldMax: time.Second}
	events, err := Expand(net, spec, des.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	arrivals := len(events) / 2
	mean := spec.Rate * spec.Duration.Seconds() // 1000
	if f := float64(arrivals); f < 0.8*mean || f > 1.2*mean {
		t.Errorf("arrivals = %d, want within 20%% of %g", arrivals, mean)
	}
}

func TestExpandHoldBounds(t *testing.T) {
	net := testNet(t, 20)
	spec := Spec{Kind: PoissonNodeFail, Rate: 1, Duration: 100 * time.Second,
		HoldMin: 3 * time.Second, HoldMax: 9 * time.Second}
	events, err := Expand(net, spec, des.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	// Pair each down with its up (same node, generated adjacently before
	// the sort): collect per-node down times and match.
	type open struct{ at time.Duration }
	pendingByNode := map[int][]open{}
	for _, ev := range events {
		switch ev.Kind {
		case EventNodeDown:
			pendingByNode[ev.Nodes[0]] = append(pendingByNode[ev.Nodes[0]], open{ev.At})
		case EventNodeUp:
			q := pendingByNode[ev.Nodes[0]]
			if len(q) == 0 {
				t.Fatalf("up for node %d with no preceding down", ev.Nodes[0])
			}
			hold := ev.At - q[0].at
			pendingByNode[ev.Nodes[0]] = q[1:]
			if hold < spec.HoldMin || hold > spec.HoldMax {
				t.Errorf("hold %v outside [%v, %v]", hold, spec.HoldMin, spec.HoldMax)
			}
		}
	}
}

func TestExpandRollingOutage(t *testing.T) {
	net := testNet(t, 40)
	spec := Spec{Kind: RollingOutage, Regions: 3, Period: 30 * time.Second,
		Fraction: 0.1, HoldMin: 5 * time.Second, HoldMax: 5 * time.Second}
	events, err := Expand(net, spec, des.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2*spec.Regions {
		t.Fatalf("want %d events, got %d", 2*spec.Regions, len(events))
	}
	wantK := 4 // round(0.1 * 40)
	for i := 0; i < spec.Regions; i++ {
		down, up := events[2*i], events[2*i+1]
		if down.Kind != EventNodeDown || up.Kind != EventNodeUp {
			t.Fatalf("region %d: want down/up pair, got %v/%v", i, down.Kind, up.Kind)
		}
		if down.At != time.Duration(i)*spec.Period {
			t.Errorf("region %d: down at %v, want %v", i, down.At, time.Duration(i)*spec.Period)
		}
		if up.At != down.At+5*time.Second {
			t.Errorf("region %d: up at %v, want %v", i, up.At, down.At+5*time.Second)
		}
		if len(down.Nodes) != wantK {
			t.Errorf("region %d: %d nodes, want %d", i, len(down.Nodes), wantK)
		}
		if !reflect.DeepEqual(down.Nodes, up.Nodes) {
			t.Errorf("region %d: recovery set differs from failure set", i)
		}
	}
}

func TestExpandFlapCycle(t *testing.T) {
	net := testNet(t, 30)
	spec := Spec{Kind: FlapCycle, Cycles: 4, Period: 20 * time.Second,
		HoldMin: 2 * time.Second, HoldMax: 10 * time.Second}
	events, err := Expand(net, spec, des.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2*spec.Cycles {
		t.Fatalf("want %d events, got %d", 2*spec.Cycles, len(events))
	}
	link := events[0].Links[0]
	for c := 0; c < spec.Cycles; c++ {
		down, up := events[2*c], events[2*c+1]
		if down.Kind != EventLinkDown || up.Kind != EventLinkUp {
			t.Fatalf("cycle %d: want down/up, got %v/%v", c, down.Kind, up.Kind)
		}
		if down.At != time.Duration(c)*spec.Period {
			t.Errorf("cycle %d: down at %v", c, down.At)
		}
		if down.Links[0] != link || up.Links[0] != link {
			t.Errorf("cycle %d: link changed mid-program", c)
		}
		if h := up.At - down.At; h < spec.HoldMin || h > spec.HoldMax {
			t.Errorf("cycle %d: hold %v outside bounds", c, h)
		}
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	bad := []Spec{
		{},
		{Kind: "nope"},
		{Kind: PoissonLinkFlap, Rate: 0, Duration: time.Minute, HoldMin: time.Second, HoldMax: time.Second},
		{Kind: PoissonLinkFlap, Rate: 1, Duration: 0, HoldMin: time.Second, HoldMax: time.Second},
		{Kind: PoissonLinkFlap, Rate: 1, Duration: time.Minute, HoldMin: 2 * time.Second, HoldMax: time.Second},
		{Kind: PoissonNodeFail, Rate: 1e6, Duration: time.Hour, HoldMin: time.Second, HoldMax: time.Second}, // over arrival cap
		{Kind: RollingOutage, Regions: 0, Period: time.Second, Fraction: 0.1, HoldMin: time.Second, HoldMax: time.Second},
		{Kind: RollingOutage, Regions: 2, Period: time.Second, Fraction: 1.5, HoldMin: time.Second, HoldMax: time.Second},
		{Kind: FlapCycle, Cycles: 0, Period: time.Second, HoldMin: time.Second, HoldMax: time.Second},
		{Kind: FlapCycle, Cycles: 2, Period: time.Second, HoldMin: time.Second, HoldMax: 2 * time.Second}, // hold > period
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", s)
		}
	}
}

// FuzzChurnSpec feeds arbitrary programs through the two calls a
// submission reaches, Spec.Validate and Expand, on a small fixed world.
// Neither may panic; Expand must refuse what Validate refuses; and an
// accepted spec must expand deterministically, in time order, inside its
// horizon and under the perturbation cap. The seed corpus
// (testdata/fuzz/FuzzChurnSpec) holds one valid program per kind and the
// refusals that matter: NaN, infinite and negative rates, zero and
// negative durations and holds, hold_min > hold_max, rate × duration past
// the cap, overflowing schedules and an unknown kind.
func FuzzChurnSpec(f *testing.F) {
	net, err := topology.Spec{Kind: topology.KindSkewed7030, N: 12}.Build(des.NewRNG(7))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, kind string, rate float64, duration, holdMin, holdMax, period int64,
		cycles, regions int, fraction float64, seed int64) {
		spec := Spec{
			Kind: Kind(kind), Rate: rate, Duration: time.Duration(duration),
			HoldMin: time.Duration(holdMin), HoldMax: time.Duration(holdMax),
			Cycles: cycles, Period: time.Duration(period), Regions: regions, Fraction: fraction,
		}
		events, err := Expand(net, spec, des.NewRNG(seed))
		if verr := spec.Validate(); verr != nil {
			if err == nil {
				t.Fatalf("Expand accepted %+v, which Validate refuses: %v", spec, verr)
			}
			return
		}
		if err != nil {
			t.Fatalf("Expand refused valid %+v: %v", spec, err)
		}
		again, _ := Expand(net, spec, des.NewRNG(seed))
		if !reflect.DeepEqual(events, again) {
			t.Fatalf("%+v expands differently from the same seed", spec)
		}
		horizon, _ := spec.horizon()
		if len(events) > 2*maxArrivals {
			t.Fatalf("%+v expands to %d events, cap %d perturbations", spec, len(events), maxArrivals)
		}
		for i, ev := range events {
			if ev.At < 0 || ev.At > horizon {
				t.Fatalf("%+v: event %d at %v, outside [0, %v]", spec, i, ev.At, horizon)
			}
			if i > 0 && ev.At < events[i-1].At {
				t.Fatalf("%+v: event %d at %v before event %d at %v", spec, i, ev.At, i-1, events[i-1].At)
			}
		}
	})
}

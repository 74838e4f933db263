package bgpsim_test

import (
	"testing"
	"time"

	"bgpsim"
)

func TestQuickStartFlow(t *testing.T) {
	r, err := bgpsim.Run(bgpsim.Scenario{
		Topology: bgpsim.Skewed7030(30),
		Failure:  bgpsim.GeographicFailure(0.10),
		Scheme:   bgpsim.DynamicMRAI(),
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Delay <= 0 || r.Messages <= 0 {
		t.Errorf("empty result: %+v", r)
	}
}

func TestTopologyConstructors(t *testing.T) {
	for _, spec := range []bgpsim.TopologySpec{
		bgpsim.Skewed7030(30),
		bgpsim.Skewed5050(30),
		bgpsim.Skewed8515(40),
		bgpsim.InternetLike(30),
	} {
		net, err := bgpsim.BuildTopology(spec, 1)
		if err != nil {
			t.Fatalf("%s: %v", spec.Kind, err)
		}
		if !net.Connected() {
			t.Errorf("%s: not connected", spec.Kind)
		}
	}
	topo := bgpsim.Realistic(10)
	topo.MaxASSize = 3
	net, err := bgpsim.BuildTopology(topo, 1)
	if err != nil {
		t.Fatal(err)
	}
	if net.NumASes() != 10 {
		t.Errorf("realistic ASes = %d", net.NumASes())
	}
}

func TestSchemeConstructorsProduceRunnableScenarios(t *testing.T) {
	custom, err := bgpsim.CustomDynamicMRAI([]time.Duration{time.Second, 2 * time.Second}, time.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	schemes := []bgpsim.Scheme{
		bgpsim.ConstantMRAI(time.Second),
		bgpsim.DegreeDependentMRAI(5, 500*time.Millisecond, 2*time.Second),
		bgpsim.DynamicMRAI(),
		custom,
		bgpsim.BatchedProcessing(500 * time.Millisecond),
		bgpsim.BatchedDynamic(),
		bgpsim.CustomScheme("no-jitter", func(p *bgpsim.Params) { p.JitterTimers = false }),
	}
	for _, sch := range schemes {
		sch := sch
		t.Run(sch.Name, func(t *testing.T) {
			r, err := bgpsim.Run(bgpsim.Scenario{
				Topology: bgpsim.Skewed7030(24),
				Failure:  bgpsim.RandomFailure(2),
				Scheme:   sch,
				Seed:     5,
			})
			if err != nil {
				t.Fatal(err)
			}
			if r.FailedNodes != 2 {
				t.Errorf("failed = %d", r.FailedNodes)
			}
		})
	}
}

func TestLowLevelSimulatorAccess(t *testing.T) {
	net, err := bgpsim.BuildTopology(bgpsim.Skewed7030(24), 2)
	if err != nil {
		t.Fatal(err)
	}
	p := bgpsim.DefaultParams()
	p.Seed = 2
	sim, err := bgpsim.NewSimulator(net, p)
	if err != nil {
		t.Fatal(err)
	}
	delay, err := sim.ConvergeAndFail([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if delay < 0 {
		t.Errorf("delay = %v", delay)
	}
	if sim.Alive(0) || !sim.Alive(2) {
		t.Error("alive bookkeeping wrong")
	}
	if _, ok := sim.LocPath(2, 2); !ok {
		t.Error("own prefix missing")
	}
}

func TestExperimentRegistryAccessible(t *testing.T) {
	if got := len(bgpsim.Experiments()); got < 18 {
		t.Errorf("registry has %d experiments", got)
	}
	if _, err := bgpsim.LookupExperiment("fig7"); err != nil {
		t.Error(err)
	}
	if bgpsim.PaperOptions().Nodes != 120 {
		t.Error("paper options not at 120 nodes")
	}
	if bgpsim.QuickOptions().Nodes >= bgpsim.PaperOptions().Nodes {
		t.Error("quick options not reduced")
	}
}

// TestCustomDynamicMRAIRefusesInvalidLadder pins that a caller's ladder
// is checked where it enters the library: an invalid one is an error,
// not a panic at the first trial.
func TestCustomDynamicMRAIRefusesInvalidLadder(t *testing.T) {
	for _, c := range []struct {
		levels   []time.Duration
		up, down time.Duration
	}{
		{nil, time.Second, 0},
		{[]time.Duration{2 * time.Second, time.Second}, time.Second, 0},
		{[]time.Duration{time.Second, 2 * time.Second}, time.Second, 2 * time.Second},
	} {
		if _, err := bgpsim.CustomDynamicMRAI(c.levels, c.up, c.down); err == nil {
			t.Errorf("CustomDynamicMRAI(%v, %v, %v) accepted", c.levels, c.up, c.down)
		}
	}
}

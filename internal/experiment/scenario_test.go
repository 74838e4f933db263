package experiment

import (
	"context"
	"strings"
	"testing"
	"time"

	"bgpsim/internal/bgp"
	"bgpsim/internal/failure"
	"bgpsim/internal/topology"
)

func tinyScenario(seed int64) Scenario {
	return Scenario{
		Topology: topology.Spec{Kind: topology.KindSkewed7030, N: 30},
		Failure:  failure.Geographic(0.10),
		Scheme:   ConstantMRAI(500 * time.Millisecond),
		Seed:     seed,
	}
}

func TestRunProducesMeasurements(t *testing.T) {
	r, err := Run(tinyScenario(1))
	if err != nil {
		t.Fatal(err)
	}
	if r.Delay <= 0 {
		t.Error("zero convergence delay")
	}
	if r.Messages <= 0 || r.Messages != r.Announcements+r.Withdrawals {
		t.Errorf("message accounting wrong: %d != %d + %d", r.Messages, r.Announcements, r.Withdrawals)
	}
	if r.FailedNodes != 3 {
		t.Errorf("failed %d nodes, want 3 (10%% of 30)", r.FailedNodes)
	}
	if r.Nodes != 30 {
		t.Errorf("nodes = %d", r.Nodes)
	}
	if r.Processed <= 0 {
		t.Error("no processing recorded")
	}
}

func TestRunIsDeterministicPerSeed(t *testing.T) {
	a, err := Run(tinyScenario(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tinyScenario(7))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed, different results:\n%+v\n%+v", a, b)
	}
	c, err := Run(tinyScenario(8))
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different seeds produced identical results (suspicious)")
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	sc := tinyScenario(1)
	sc.Topology = topology.Spec{Kind: "bogus", N: 10}
	if _, err := Run(sc); err == nil {
		t.Error("bad topology accepted")
	}
	sc = tinyScenario(1)
	sc.Failure = failure.Spec{Kind: "bogus", Count: 1}
	if _, err := Run(sc); err == nil {
		t.Error("bad failure accepted")
	}
	sc = tinyScenario(1)
	base := bgp.DefaultParams()
	base.ProcMin = -1
	sc.Base = &base
	if _, err := Run(sc); err == nil {
		t.Error("bad base params accepted")
	}
}

// TestShardedScenarioRefused: Scenario.Shards outlives the sharded engine
// only for benchmark/replica.go's read; a value above 1 is an error, not
// a silent single-engine run, and 1 is the single engine it always was.
func TestShardedScenarioRefused(t *testing.T) {
	sc := tinyScenario(1)
	sc.Shards = 2
	if _, err := Run(sc); err == nil || !strings.Contains(err.Error(), "sharded engines were removed") {
		t.Errorf("Shards = 2: Run = %v, want the removal error", err)
	}
	want, err := Run(tinyScenario(1))
	if err != nil {
		t.Fatal(err)
	}
	sc.Shards = 1
	if got, err := Run(sc); err != nil || got != want {
		t.Errorf("Shards = 1: Run = %+v, %v; want %+v", got, err, want)
	}
}

func TestBaseParamsRespected(t *testing.T) {
	sc := tinyScenario(3)
	base := bgp.DefaultParams()
	base.DetectDelay = 3 * time.Second
	sc.Base = &base
	r, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.Delay < 3*time.Second {
		t.Errorf("delay %v < detect delay; Base ignored", r.Delay)
	}
}

func TestRunTrialsAggregates(t *testing.T) {
	st, err := RunTrials(context.Background(), tinyScenario(5), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.N != 3 || len(st.Results) != 3 {
		t.Fatalf("N = %d, results = %d", st.N, len(st.Results))
	}
	if st.MeanDelay <= 0 || st.MeanMessages <= 0 {
		t.Error("empty aggregates")
	}
	// Mean must lie within [min, max] of the trials.
	minD, maxD := st.Results[0].Delay, st.Results[0].Delay
	for _, r := range st.Results {
		if r.Delay < minD {
			minD = r.Delay
		}
		if r.Delay > maxD {
			maxD = r.Delay
		}
	}
	if st.MeanDelay < minD || st.MeanDelay > maxD {
		t.Errorf("mean %v outside [%v,%v]", st.MeanDelay, minD, maxD)
	}
	if _, err := RunTrials(context.Background(), tinyScenario(5), 0, 1); err == nil {
		t.Error("zero trials accepted")
	}
}

func TestTrialsUseDistinctSeeds(t *testing.T) {
	st, err := RunTrials(context.Background(), tinyScenario(9), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	allSame := true
	for _, r := range st.Results[1:] {
		if r != st.Results[0] {
			allSame = false
		}
	}
	if allSame {
		t.Error("all trials identical; seeds not varied")
	}
}

func TestSchemeConstructors(t *testing.T) {
	cases := []struct {
		scheme Scheme
		check  func(p bgp.Params) bool
	}{
		{ConstantMRAI(time.Second), func(p bgp.Params) bool { return p.Queue == bgp.QueueFIFO }},
		{Batching(time.Second), func(p bgp.Params) bool { return p.Queue == bgp.QueueBatched }},
		{PaperDynamicMRAI(), func(p bgp.Params) bool { return p.Queue == bgp.QueueFIFO }},
		{BatchingDynamic(nil, 0, 0), nil}, // Apply panics on nil levels; construct only
		{DegreeMRAI(8, time.Second, 2*time.Second), func(p bgp.Params) bool { return p.MRAI != nil }},
		{Custom("x", func(p *bgp.Params) { p.FlapGate = 2 }), func(p bgp.Params) bool { return p.FlapGate == 2 }},
	}
	for _, c := range cases {
		if c.scheme.Name == "" {
			t.Error("scheme with empty name")
		}
		if c.check == nil {
			continue
		}
		p := bgp.DefaultParams()
		c.scheme.Apply(&p)
		if !c.check(p) {
			t.Errorf("scheme %q did not apply", c.scheme.Name)
		}
	}
}

func TestSchemeNamesAreReadable(t *testing.T) {
	if got := ConstantMRAI(500 * time.Millisecond).Name; got != "MRAI=0.5s" {
		t.Errorf("name = %q", got)
	}
	if got := Batching(2250 * time.Millisecond).Name; !strings.Contains(got, "2.25") {
		t.Errorf("name = %q", got)
	}
}

package churn

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"bgpsim/internal/topology"
)

// testScenario is the small churn scenario the runner tests share: a
// 30-node grid under a short Poisson link-flap program with a fast MRAI.
func testScenario() Scenario {
	return Scenario{
		Topology: topology.Spec{Kind: topology.KindSkewed7030, N: 30},
		Scheme:   "mrai=0.5",
		Program: Spec{Kind: PoissonLinkFlap, Rate: 0.1, Duration: 60 * time.Second,
			HoldMin: 4 * time.Second, HoldMax: 12 * time.Second},
		Seed: 42,
	}
}

func TestRunTrialWindows(t *testing.T) {
	sc := testScenario()
	var streamed int
	tr, err := NewRunner().RunTrial(context.Background(), sc, 0, func(trial int, w WindowResult, per []int) {
		if trial != 0 {
			t.Errorf("observer trial = %d", trial)
		}
		if w.Index != streamed {
			t.Errorf("window %d streamed out of order (want %d)", w.Index, streamed)
		}
		if len(per) != 30 {
			t.Errorf("perNodeSent has %d entries, want 30", len(per))
		}
		streamed++
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Windows) == 0 {
		t.Fatal("no windows measured")
	}
	if streamed != len(tr.Windows) {
		t.Errorf("streamed %d windows, assembled %d", streamed, len(tr.Windows))
	}
	for i, w := range tr.Windows {
		if w.Index != i {
			t.Errorf("window %d has index %d", i, w.Index)
		}
		if w.Event != "link-down" && w.Event != "link-up" {
			t.Errorf("window %d: unexpected event %q", i, w.Event)
		}
		if w.At < 0 {
			t.Errorf("window %d opens before program start: %v", i, w.At)
		}
		if i > 0 && w.At <= tr.Windows[i-1].At {
			t.Errorf("window %d not after window %d", i, i-1)
		}
	}
	// A link flap must provoke some BGP activity somewhere in the stream.
	activity := 0
	for _, w := range tr.Windows {
		activity += w.Announcements + w.Withdrawals
	}
	if activity == 0 {
		t.Error("program produced no BGP messages at all")
	}
}

func TestRunTrialRecoveryRestores(t *testing.T) {
	// A single full flap cycle must end quiescent with activity in both
	// the down and the up window.
	sc := testScenario()
	sc.Program = Spec{Kind: FlapCycle, Cycles: 2, Period: 30 * time.Second,
		HoldMin: 10 * time.Second, HoldMax: 10 * time.Second}
	tr, err := NewRunner().RunTrial(context.Background(), sc, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Windows) != 4 {
		t.Fatalf("want 4 windows (2 cycles), got %d", len(tr.Windows))
	}
	for i, w := range tr.Windows {
		want := "link-down"
		if i%2 == 1 {
			want = "link-up"
		}
		if w.Event != want {
			t.Errorf("window %d: event %q, want %q", i, w.Event, want)
		}
	}
}

func TestRunAssemblyDeterministicAcrossWorkers(t *testing.T) {
	sc := testScenario()
	base, err := Run(context.Background(), sc, 3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(context.Background(), sc, 3, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if base.Render() != par.Render() {
		t.Errorf("rendered stream differs between 1 and 4 trial workers:\n%s\nvs\n%s", base.Render(), par.Render())
	}
	if base.Digest() != par.Digest() {
		t.Errorf("digest differs between worker counts")
	}
}

func TestRenderShape(t *testing.T) {
	sc := testScenario()
	rr, err := Run(context.Background(), sc, 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := rr.Render()
	if !strings.HasPrefix(s, "churn poisson-link-flap") {
		t.Errorf("render header: %q", strings.SplitN(s, "\n", 2)[0])
	}
	if got := strings.Count(s, "trial "); got != 2 {
		t.Errorf("render names %d trials, want 2", got)
	}
	if rr.Digest() == 0 {
		t.Error("zero digest")
	}
}

func TestRunRejectsBadScheme(t *testing.T) {
	sc := testScenario()
	sc.Scheme = "bogus"
	if _, err := Run(context.Background(), sc, 1, 1, nil); err == nil {
		t.Fatal("bad scheme accepted")
	}
}

func TestRunCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, testScenario(), 1, 1, nil); err == nil {
		t.Fatal("canceled context did not abort the run")
	}
}

// TestRunCanceledBeforeStartBindsNoSimulator pins that a run whose
// context is cancelled before it starts sets nothing up: it returns
// context.Canceled, and the whole run allocates a few dozen objects,
// where setting up one trial on this 30-node world (its simulator bound
// and converged) takes about a thousand.
func TestRunCanceledBeforeStartBindsNoSimulator(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var err error
	allocs := testing.AllocsPerRun(5, func() {
		_, err = Run(ctx, testScenario(), 4, 2, nil)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if allocs > 100 {
		t.Errorf("cancelled Run allocated %v objects, want under 100: it set up a trial", allocs)
	}
}

// TestRunHonoursSpecPolicy pins that a churn trial applies the policy
// its topology spec names, as every scenario trial does: a run on
// hierarchical relationships streams something else than the same run
// with no policy.
func TestRunHonoursSpecPolicy(t *testing.T) {
	bare := Scenario{
		Topology: topology.Spec{Kind: topology.KindSkewed7030, N: 30},
		Scheme:   "mrai=0.5",
		Program: Spec{Kind: PoissonLinkFlap, Rate: 0.1, Duration: 40 * time.Second,
			HoldMin: 4 * time.Second, HoldMax: 8 * time.Second},
		Seed: 11,
	}
	sc := bare
	sc.Topology.Relationships = topology.RelModeHierarchical
	const trials = 2
	plain, err := Run(context.Background(), bare, trials, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := Run(context.Background(), sc, trials, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if policy.Digest() == plain.Digest() {
		t.Fatal("a hierarchical-policy churn run streams what the policy-free run streams")
	}
}

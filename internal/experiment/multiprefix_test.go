package experiment

import (
	"context"
	"fmt"
	"testing"
	"time"

	"bgpsim/internal/failure"
	"bgpsim/internal/topology"
)

// multiPrefixScenario is the shared fixture: a small world with three
// prefixes per origin, large enough that the per-prefix reindexing and
// the pooled Reset path both carry real load.
func multiPrefixScenario() Scenario {
	return Scenario{
		Topology: topology.Spec{Kind: topology.KindSkewed7030, N: 30, PrefixesPerOrigin: 3},
		Failure:  failure.Geographic(0.10),
		Scheme:   ConstantMRAI(500 * time.Millisecond),
		Seed:     11,
	}
}

// digestStats renders every per-trial observable into one comparable
// string.
func digestStats(st Stats) string {
	s := fmt.Sprintf("n=%d mean=%v std=%v msgs=%.3f/%.3f disc=%.3f\n",
		st.N, st.MeanDelay, st.StdDelay, st.MeanMessages, st.StdMessages, st.MeanDiscard)
	for i, r := range st.Results {
		s += fmt.Sprintf("t%d: %+v\n", i, r)
	}
	return s
}

// TestMultiPrefixTrialsWorkerInvariant pins the multi-prefix digest
// across worker counts: the parallel trial fan-out must produce
// byte-identical statistics to the serial run.
func TestMultiPrefixTrialsWorkerInvariant(t *testing.T) {
	sc := multiPrefixScenario()
	serial, err := RunTrials(context.Background(), sc, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := digestStats(serial)
	for _, workers := range []int{2, 4} {
		par, err := RunTrials(context.Background(), sc, 4, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got := digestStats(par); got != want {
			t.Errorf("workers=%d: multi-prefix trials diverged from serial\nserial:\n%s\nparallel:\n%s",
				workers, want, got)
		}
	}
}

// TestMultiPrefixPooledMatchesFresh pins the multi-prefix digest across
// the pooled and fresh execution paths: Run builds a fresh simulator per
// call, RunTrials serves trials from the simulator pool; seed-aligned
// trials must agree exactly.
func TestMultiPrefixPooledMatchesFresh(t *testing.T) {
	sc := multiPrefixScenario()
	pooled, err := RunTrials(context.Background(), sc, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range pooled.Results {
		trial := sc
		trial.Seed = trialSeed(sc.Seed, i)
		fresh, err := Run(trial)
		if err != nil {
			t.Fatal(err)
		}
		if fresh != want {
			t.Errorf("trial %d: pooled result diverged from fresh\nfresh:  %+v\npooled: %+v", i, fresh, want)
		}
	}
}

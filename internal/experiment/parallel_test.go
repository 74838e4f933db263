package experiment

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestForEachIndexSerialStopsAtFailure pins the serial rule: with one
// worker the calls run in index order and none starts after a failure.
func TestForEachIndexSerialStopsAtFailure(t *testing.T) {
	bad := errors.New("index 2 fails")
	var started []int
	i, err := ForEachIndex(10, 1, func(i int) error {
		started = append(started, i)
		if i == 2 {
			return bad
		}
		return nil
	})
	if i != 2 || err != bad {
		t.Errorf("ForEachIndex = (%d, %v), want (2, %v)", i, err, bad)
	}
	if fmt.Sprint(started) != "[0 1 2]" {
		t.Errorf("started %v, want [0 1 2]", started)
	}
	if i, err := ForEachIndex(3, 1, func(int) error { return nil }); i != -1 || err != nil {
		t.Errorf("ForEachIndex of no failure = (%d, %v), want (-1, nil)", i, err)
	}
}

// TestForEachIndexReportsLowestFailingIndex pins the parallel rule: when
// several calls fail, the one reported is the lowest index, whatever
// order the failures come in (index 5 waits for index 7's).
func TestForEachIndexReportsLowestFailingIndex(t *testing.T) {
	sevenFailed := make(chan struct{})
	i, err := ForEachIndex(100, 3, func(i int) error {
		switch i {
		case 5:
			<-sevenFailed
			return fmt.Errorf("index %d", i)
		case 7:
			defer close(sevenFailed)
			return fmt.Errorf("index %d", i)
		}
		return nil
	})
	if i != 5 || err == nil || err.Error() != "index 5" {
		t.Errorf("ForEachIndex = (%d, %v), want (5, index 5)", i, err)
	}
}

func TestRunTrialsParallelMatchesSerial(t *testing.T) {
	sc := tinyScenario(31)
	serial, err := RunTrials(context.Background(), sc, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunTrials(context.Background(), sc, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if serial.MeanDelay != parallel.MeanDelay || serial.MeanMessages != parallel.MeanMessages {
		t.Errorf("parallel diverged: serial (%v, %v) vs parallel (%v, %v)",
			serial.MeanDelay, serial.MeanMessages, parallel.MeanDelay, parallel.MeanMessages)
	}
	for i := range serial.Results {
		if serial.Results[i] != parallel.Results[i] {
			t.Errorf("trial %d differs: %+v vs %+v", i, serial.Results[i], parallel.Results[i])
		}
	}
}

func TestRunTrialsParallelDefaults(t *testing.T) {
	// workers <= 0 selects GOMAXPROCS; workers > n clamps; both must work.
	sc := tinyScenario(33)
	if _, err := RunTrials(context.Background(), sc, 2, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := RunTrials(context.Background(), sc, 2, 99); err != nil {
		t.Fatal(err)
	}
	if _, err := RunTrials(context.Background(), sc, 0, 2); err == nil {
		t.Error("zero trials accepted")
	}
}

func TestRunTrialsParallelPropagatesErrors(t *testing.T) {
	sc := tinyScenario(35)
	sc.Topology.Kind = "bogus"
	if _, err := RunTrials(context.Background(), sc, 3, 2); err == nil {
		t.Error("bad topology swallowed")
	}
}

func TestRunTrialsParallelSingleWorkerDelegates(t *testing.T) {
	sc := tinyScenario(37)
	st, err := RunTrials(context.Background(), sc, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.N != 2 {
		t.Errorf("N = %d", st.N)
	}
}

func TestPolicyRatioScenario(t *testing.T) {
	sc := tinyScenario(39)
	sc.PolicyRatio = 1.5
	r, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.Delay <= 0 {
		t.Error("policy scenario produced no delay")
	}
	sc.PolicyRatio = 0.5 // invalid ratio must surface
	if _, err := Run(sc); err == nil {
		t.Error("invalid policy ratio accepted")
	}
	_ = time.Second
}

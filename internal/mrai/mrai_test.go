package mrai

import (
	"testing"
	"testing/quick"
	"time"
)

func TestConstantAlwaysReturnsValue(t *testing.T) {
	p := Constant(30 * time.Second)(5)
	for i := 0; i < 10; i++ {
		s := Snapshot{QueueLen: i * 100, UnfinishedWork: time.Duration(i) * time.Second}
		if got := p.MRAI(s); got != 30*time.Second {
			t.Fatalf("MRAI = %v, want 30s regardless of load", got)
		}
	}
}

func TestDegreeDependentSplitsAtThreshold(t *testing.T) {
	f := DegreeDependent(8, 500*time.Millisecond, 2250*time.Millisecond)
	if got := f(3).MRAI(Snapshot{}); got != 500*time.Millisecond {
		t.Errorf("low-degree MRAI = %v", got)
	}
	if got := f(8).MRAI(Snapshot{}); got != 2250*time.Millisecond {
		t.Errorf("threshold-degree MRAI = %v", got)
	}
	if got := f(14).MRAI(Snapshot{}); got != 2250*time.Millisecond {
		t.Errorf("high-degree MRAI = %v", got)
	}
}

// TestConstantFactoriesDoNotAllocate: a simulator calls its factory once
// per router per trial, so a constant policy is boxed when the factory is
// made, not on every call.
func TestConstantFactoriesDoNotAllocate(t *testing.T) {
	for name, f := range map[string]Factory{
		"constant": Constant(30 * time.Second),
		"degree":   DegreeDependent(10, 500*time.Millisecond, 2250*time.Millisecond),
	} {
		for _, k := range []int{1, 10} {
			if avg := testing.AllocsPerRun(100, func() { f(k) }); avg != 0 {
				t.Errorf("%s(%d) allocates %.1f objects per call, want 0", name, k, avg)
			}
		}
	}
}

func TestDynamicClimbsOnOverload(t *testing.T) {
	p := PaperDynamic()(8)
	// Start at level 0.
	if got := p.MRAI(Snapshot{UnfinishedWork: 100 * time.Millisecond}); got != PaperLevels[0] {
		t.Fatalf("initial MRAI = %v, want %v", got, PaperLevels[0])
	}
	// Overloaded: climb one level per restart.
	if got := p.MRAI(Snapshot{UnfinishedWork: time.Second}); got != PaperLevels[1] {
		t.Fatalf("after 1 overload MRAI = %v, want %v", got, PaperLevels[1])
	}
	if got := p.MRAI(Snapshot{UnfinishedWork: time.Second}); got != PaperLevels[2] {
		t.Fatalf("after 2 overloads MRAI = %v, want %v", got, PaperLevels[2])
	}
	// Saturates at the top.
	if got := p.MRAI(Snapshot{UnfinishedWork: 10 * time.Second}); got != PaperLevels[2] {
		t.Fatalf("saturated MRAI = %v, want %v", got, PaperLevels[2])
	}
}

func TestDynamicDescendsWhenIdle(t *testing.T) {
	p := PaperDynamic()(8)
	p.MRAI(Snapshot{UnfinishedWork: time.Second})
	p.MRAI(Snapshot{UnfinishedWork: time.Second}) // now at top
	if got := p.MRAI(Snapshot{UnfinishedWork: 0}); got != PaperLevels[1] {
		t.Fatalf("after idle MRAI = %v, want %v", got, PaperLevels[1])
	}
	if got := p.MRAI(Snapshot{UnfinishedWork: 0}); got != PaperLevels[0] {
		t.Fatalf("after 2 idles MRAI = %v, want %v", got, PaperLevels[0])
	}
	// Saturates at the bottom.
	if got := p.MRAI(Snapshot{UnfinishedWork: 0}); got != PaperLevels[0] {
		t.Fatalf("bottom MRAI = %v", got)
	}
}

func TestDynamicHoldsBetweenThresholds(t *testing.T) {
	p := PaperDynamic()(8)
	p.MRAI(Snapshot{UnfinishedWork: time.Second}) // level 1
	mid := Snapshot{UnfinishedWork: 300 * time.Millisecond}
	for i := 0; i < 5; i++ {
		if got := p.MRAI(mid); got != PaperLevels[1] {
			t.Fatalf("mid-band MRAI = %v, want hold at %v", got, PaperLevels[1])
		}
	}
}

func TestLadderLevelObservable(t *testing.T) {
	p := PaperDynamic()(8)
	lv, ok := p.(Leveler)
	if !ok {
		t.Fatal("ladder policy does not expose Level()")
	}
	if lv.Level() != 0 {
		t.Fatalf("initial level = %d", lv.Level())
	}
	p.MRAI(Snapshot{UnfinishedWork: time.Second})
	if lv.Level() != 1 {
		t.Fatalf("level = %d after overload", lv.Level())
	}
}

func TestPerRouterStateIsIndependent(t *testing.T) {
	f := PaperDynamic()
	a, b := f(8), f(8)
	a.MRAI(Snapshot{UnfinishedWork: time.Second})
	if got := b.MRAI(Snapshot{UnfinishedWork: 100 * time.Millisecond}); got != PaperLevels[0] {
		t.Fatalf("router b MRAI = %v; a's state leaked", got)
	}
}

func TestUtilizationSignal(t *testing.T) {
	p := DynamicUtilization(PaperLevels, 0.9, 0.2)(8)
	if got := p.MRAI(Snapshot{Utilization: 0.95}); got != PaperLevels[1] {
		t.Fatalf("MRAI = %v after high utilization", got)
	}
	if got := p.MRAI(Snapshot{Utilization: 0.1}); got != PaperLevels[0] {
		t.Fatalf("MRAI = %v after low utilization", got)
	}
	// Work signal must be ignored by the utilization ladder.
	if got := p.MRAI(Snapshot{UnfinishedWork: time.Hour, Utilization: 0.5}); got != PaperLevels[0] {
		t.Fatalf("MRAI = %v; work signal leaked into utilization ladder", got)
	}
}

func TestMsgRateSignal(t *testing.T) {
	p := DynamicMsgRate(PaperLevels, 100, 10)(8)
	if got := p.MRAI(Snapshot{MsgRate: 500}); got != PaperLevels[1] {
		t.Fatalf("MRAI = %v after high rate", got)
	}
	if got := p.MRAI(Snapshot{MsgRate: 5}); got != PaperLevels[0] {
		t.Fatalf("MRAI = %v after low rate", got)
	}
}

func TestLadderValidation(t *testing.T) {
	cases := []Ladder{
		{Levels: nil, Signal: SignalWork},
		{Levels: []time.Duration{2, 1}, Signal: SignalWork},
		{Levels: []time.Duration{1, 1}, Signal: SignalWork},
		{Levels: PaperLevels, Signal: SignalWork, UpTh: 1, DownTh: 2},
		{Levels: PaperLevels, Signal: SignalUtilization, UpUtil: 0.1, DownUtil: 0.5},
		{Levels: PaperLevels, Signal: SignalMsgRate, UpRate: 1, DownRate: 5},
		{Levels: PaperLevels, Signal: Signal(99)},
	}
	for i, l := range cases {
		if l.Validate() == nil {
			t.Errorf("case %d: Validate accepted an invalid ladder", i)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: invalid ladder accepted", i)
				}
			}()
			l.Factory()
		}()
	}
}

func TestSignalString(t *testing.T) {
	if SignalWork.String() != "work" || SignalUtilization.String() != "utilization" ||
		SignalMsgRate.String() != "msgrate" {
		t.Error("signal names wrong")
	}
	if Signal(42).String() == "" {
		t.Error("unknown signal has empty name")
	}
}

// Property: the ladder always returns one of its configured levels and
// moves at most one step per call.
func TestPropertyLadderStepBound(t *testing.T) {
	f := func(works []int64) bool {
		p := PaperDynamic()(8).(*ladderPolicy)
		prev := p.Level()
		for _, w := range works {
			if w < 0 {
				w = -w
			}
			d := p.MRAI(Snapshot{UnfinishedWork: time.Duration(w % int64(5*time.Second))})
			found := false
			for _, l := range PaperLevels {
				if d == l {
					found = true
				}
			}
			if !found {
				return false
			}
			if diff := p.Level() - prev; diff > 1 || diff < -1 {
				return false
			}
			prev = p.Level()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestRewindMatchesFactory pins Policy.Rewind: every policy rewinds in
// place to what its Factory builds, answering the same snapshots the
// same way afterwards, without allocating.
func TestRewindMatchesFactory(t *testing.T) {
	overload := Snapshot{UnfinishedWork: time.Second, Utilization: 1, MsgRate: 1e6}
	idle := Snapshot{}
	probe := []Snapshot{overload, overload, idle, overload}
	factories := map[string]Factory{
		"constant":    Constant(time.Second),
		"degree":      DegreeDependent(4, time.Second, 2*time.Second),
		"dynamic":     PaperDynamic(),
		"utilization": DynamicUtilization(PaperLevels, 0.9, 0.1),
		"msgrate":     DynamicMsgRate(PaperLevels, 100, 1),
		"oracle":      Oracle(time.Second),
	}
	for name, f := range factories {
		used := f(8)
		for _, s := range probe[:2] {
			used.MRAI(s)
		}
		if s, ok := used.(Settable); ok {
			s.Set(time.Minute)
		}
		if n := testing.AllocsPerRun(10, used.Rewind); n != 0 {
			t.Errorf("%s: Rewind allocates %v objects, want 0", name, n)
		}
		fresh := f(8)
		for i, s := range probe {
			if got, want := used.MRAI(s), fresh.MRAI(s); got != want {
				t.Errorf("%s: snapshot %d after Rewind: %v, fresh policy %v", name, i, got, want)
			}
		}
	}
}

// TestLadderFactoryCopiesLevelsOnce pins that the policies of one
// factory share one copy of the levels, taken when the factory is made.
func TestLadderFactoryCopiesLevelsOnce(t *testing.T) {
	levels := []time.Duration{time.Second, 2 * time.Second}
	f := Dynamic(levels, PaperUpTh, PaperDownTh)
	levels[0] = time.Hour
	if got := f(3).MRAI(Snapshot{}); got != time.Second {
		t.Errorf("MRAI = %v: the factory reads the caller's slice", got)
	}
	a, b := f(3).(*ladderPolicy), f(3).(*ladderPolicy)
	if a.cfg != b.cfg {
		t.Error("two policies of one factory hold separate configurations")
	}
}

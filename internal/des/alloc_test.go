package des

import (
	"testing"
	"time"
)

// countRunner is a trivial Runner for allocation tests.
type countRunner struct{ n int }

func (r *countRunner) Run() { r.n++ }

// TestScheduleRunnerDispatchAllocationFree pins the hot-path guarantee
// the BGP model depends on: once the engine's event free list is warm,
// scheduling a Runner and dispatching it allocates nothing. A regression
// here (dropping the free list, boxing the runner, a new per-event
// allocation) multiplies across the millions of events per experiment.
func TestScheduleRunnerDispatchAllocationFree(t *testing.T) {
	e := NewEngine()
	task := &countRunner{}
	// Warm the free list and the heap's backing array.
	e.ScheduleRunnerAt(e.Now()+time.Millisecond, task)
	e.Step()
	avg := testing.AllocsPerRun(1000, func() {
		e.ScheduleRunnerAt(e.Now()+time.Millisecond, task)
		if !e.Step() {
			t.Fatal("no event fired")
		}
	})
	if avg != 0 {
		t.Errorf("schedule+dispatch allocates %.2f objects/op, want 0", avg)
	}
	if task.n == 0 {
		t.Fatal("runner never ran")
	}
}

// TestScheduleClosureDispatchReusesEvents pins the weaker guarantee for
// the closure-based Schedule API: the Event objects themselves are
// recycled, so a non-capturing closure also dispatches allocation-free.
func TestScheduleClosureDispatchReusesEvents(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	e.Schedule(time.Millisecond, fn)
	e.Step()
	avg := testing.AllocsPerRun(1000, func() {
		e.Schedule(time.Millisecond, fn)
		if !e.Step() {
			t.Fatal("no event fired")
		}
	})
	if avg != 0 {
		t.Errorf("schedule+dispatch allocates %.2f objects/op, want 0", avg)
	}
}

// TestCanceledEventsAreRecycled pins that draining canceled events also
// feeds the free list rather than leaking the objects to the GC.
func TestCanceledEventsAreRecycled(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	ev := e.Schedule(time.Millisecond, fn)
	e.Cancel(ev)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(1000, func() {
		ev := e.Schedule(time.Millisecond, fn)
		e.Cancel(ev)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("schedule+cancel+drain allocates %.2f objects/op, want 0", avg)
	}
}

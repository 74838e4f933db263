package des

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineStartsAtEpoch(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestScheduleAndRunOrdersByTime(t *testing.T) {
	e := NewEngine()
	var got []time.Duration
	for _, d := range []time.Duration{30, 10, 20, 5, 25} {
		d := d
		e.Schedule(d*time.Millisecond, func() {
			got = append(got, e.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []time.Duration{5, 10, 20, 25, 30}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i] != w*time.Millisecond {
			t.Errorf("event %d fired at %v, want %v", i, got[i], w*time.Millisecond)
		}
	}
}

func TestEqualTimestampsFireInInsertionOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(time.Second, func() { got = append(got, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("position %d got event %d; equal-time events must be FIFO", i, v)
		}
	}
}

func TestScheduleNegativeDelayClampsToNow(t *testing.T) {
	e := NewEngine()
	e.Schedule(time.Second, func() {
		fired := false
		e.Schedule(-5*time.Second, func() { fired = true })
		_ = fired
	})
	var at Time
	e.Schedule(time.Second, func() {})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if e.Now() != time.Second {
		t.Fatalf("clock = %v, want 1s (negative delay must not rewind)", e.Now())
	}
	_ = at
}

func TestScheduleInPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("ScheduleAt in the past did not panic")
			}
		}()
		e.ScheduleAt(0, func() {})
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestScheduleNilHandlerPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("Schedule(nil) did not panic")
		}
	}()
	e.Schedule(0, nil)
}

func TestCancelPreventsFiring(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(time.Second, func() { fired = true })
	e.Cancel(ev)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Error("canceled event fired")
	}
	if !ev.Canceled() {
		t.Error("Canceled() = false after Cancel")
	}
}

func TestCancelNilAndDoubleCancelAreNoOps(t *testing.T) {
	e := NewEngine()
	e.Cancel(nil)
	ev := e.Schedule(time.Second, func() {})
	e.Cancel(ev)
	e.Cancel(ev)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestNestedSchedulingFromHandlers(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Schedule(time.Second, func() {
		order = append(order, "a")
		e.Schedule(time.Second, func() { order = append(order, "c") })
		e.Schedule(0, func() { order = append(order, "b") })
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"a", "b", "c"}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 2*time.Second {
		t.Errorf("final clock = %v, want 2s", e.Now())
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, d := range []time.Duration{1, 2, 3, 4, 5} {
		e.Schedule(d*time.Second, func() { fired = append(fired, e.Now()) })
	}
	if err := e.RunUntil(3 * time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if len(fired) != 3 {
		t.Fatalf("fired %d events before deadline, want 3", len(fired))
	}
	if e.Now() != 3*time.Second {
		t.Errorf("clock = %v, want deadline 3s", e.Now())
	}
	if e.Pending() != 2 {
		t.Errorf("Pending() = %d, want 2", e.Pending())
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(fired) != 5 {
		t.Errorf("fired %d total, want 5", len(fired))
	}
}

func TestRunHorizonGuard(t *testing.T) {
	e := NewEngine()
	e.SetMaxEvents(100)
	var loop Handler
	loop = func() { e.Schedule(time.Millisecond, loop) }
	e.Schedule(0, loop)
	if err := e.Run(); err != ErrHorizon {
		t.Fatalf("Run = %v, want ErrHorizon", err)
	}
	e.SetMaxEvents(0) // restore default
}

func TestProcessedCountsOnlyFiredEvents(t *testing.T) {
	e := NewEngine()
	ev := e.Schedule(time.Second, func() {})
	e.Schedule(2*time.Second, func() {})
	e.Cancel(ev)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if e.Processed() != 1 {
		t.Errorf("Processed() = %d, want 1", e.Processed())
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Error("Step on empty engine returned true")
	}
}

// Property: for any batch of random delays, events fire in nondecreasing
// time order and the engine clock matches each event's timestamp.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		e := NewEngine()
		var fired []Time
		for _, r := range raw {
			d := time.Duration(r) * time.Millisecond
			e.Schedule(d, func() { fired = append(fired, e.Now()) })
		}
		if err := e.Run(); err != nil {
			return false
		}
		if len(fired) != len(raw) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		sorted := make([]time.Duration, len(raw))
		for i, r := range raw {
			sorted[i] = time.Duration(r) * time.Millisecond
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i := range sorted {
			if fired[i] != sorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: interleaved schedule/cancel driven by a seed never fires a
// canceled event and fires every non-canceled one exactly once.
func TestPropertyCancelSafety(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := NewEngine()
		firedCount := make(map[int]int)
		canceled := make(map[int]bool)
		events := make(map[int]*Event)
		n := 50 + r.Intn(100)
		for i := 0; i < n; i++ {
			i := i
			d := time.Duration(r.Intn(1000)) * time.Millisecond
			events[i] = e.Schedule(d, func() { firedCount[i]++ })
		}
		for i := 0; i < n; i++ {
			if r.Intn(3) == 0 {
				e.Cancel(events[i])
				canceled[i] = true
			}
		}
		if err := e.Run(); err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			want := 1
			if canceled[i] {
				want = 0
			}
			if firedCount[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestHeapPopOrderAtScale stresses the event queue at the occupancy a
// large simulation sustains: thousands of events with heavy timestamp
// duplication. The d-ary heap must deliver a strict (timestamp,
// insertion-order) sequence — the total order every deterministic
// figure in results/ rests on.
func TestHeapPopOrderAtScale(t *testing.T) {
	const n = 5000
	e := NewEngine()
	rng := NewRNG(99)
	type stamp struct {
		at  Time
		idx int
	}
	var fired []stamp
	for i := 0; i < n; i++ {
		i := i
		// Only 64 distinct timestamps, so ties are the common case.
		d := time.Duration(rng.Intn(64)) * time.Millisecond
		e.Schedule(d, func() { fired = append(fired, stamp{e.Now(), i}) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != n {
		t.Fatalf("fired %d events, want %d", len(fired), n)
	}
	for i := 1; i < n; i++ {
		prev, cur := fired[i-1], fired[i]
		if cur.at < prev.at {
			t.Fatalf("event %d fired at %v after %v", i, cur.at, prev.at)
		}
		if cur.at == prev.at && cur.idx < prev.idx {
			t.Fatalf("tie at %v broke insertion order: %d before %d", cur.at, prev.idx, cur.idx)
		}
	}
}

// TestEngineResetRewinds pins the Reset contract the simulator pool
// relies on: pending events are dropped and recycled, the clock and
// counters rewind to the epoch, and the engine is immediately reusable.
func TestEngineResetRewinds(t *testing.T) {
	e := NewEngine()
	var fired int
	e.Schedule(time.Second, func() { fired++ })
	e.Schedule(2*time.Second, func() { fired++ })
	if err := e.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 || e.Processed() != 0 {
		t.Fatalf("after Reset: now=%v pending=%d processed=%d, want zeros",
			e.Now(), e.Pending(), e.Processed())
	}
	if fired != 1 {
		t.Fatalf("fired %d before Reset, want 1", fired)
	}
	// The dropped event must never fire; new scheduling works from t=0.
	e.Schedule(time.Millisecond, func() { fired += 10 })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 11 {
		t.Errorf("fired = %d after reuse, want 11 (dropped event leaked?)", fired)
	}
	if e.Now() != time.Millisecond {
		t.Errorf("clock = %v after reuse, want 1ms", e.Now())
	}
}

// TestEngineResetRecyclesEvents pins that Reset feeds the queued events
// back to the free list rather than leaking them.
func TestEngineResetRecyclesEvents(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 8; i++ {
		e.Schedule(time.Duration(i+1)*time.Second, func() {})
	}
	e.Reset()
	got := 0
	for ev := e.free; ev != nil; ev = ev.next {
		got++
	}
	if got != 8 {
		t.Errorf("free list holds %d events after Reset, want 8", got)
	}
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 8; i++ {
			e.Schedule(time.Duration(i+1)*time.Second, func() {})
		}
		e.Reset()
	})
	// Each Schedule allocates its closure; the Event structs themselves
	// must come from the free list. Allow the closure allocations only.
	if avg > 8 {
		t.Errorf("schedule/Reset cycle allocates %.2f objects/op, want <= 8 (closures only)", avg)
	}
}

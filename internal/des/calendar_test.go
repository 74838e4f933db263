package des

import (
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"
	"unsafe"
)

// These tests pin the calendar queue's one obligation: events fire in
// (timestamp, insertion sequence) order for every scheduling pattern,
// including ties at one instant, events beyond the ring horizon (overflow
// + migration), cancellations, deadline-bounded runs, and engine reuse
// through Reset. The expected order comes from an oracle that shares no
// code with the queue: it records each schedule call and sorts.

// orderOracle schedules events through an engine and independently
// derives the order they must fire in. An event's id is its position in
// schedule-call order, which is also the order the engine stamps
// sequence numbers in, so sorting ids stably by fire time is sorting by
// (at, seq).
type orderOracle struct {
	e        *Engine
	at       []Time // at[id] is the absolute fire time of event id
	canceled []bool
	fired    []int
}

// schedule queues event id = len(o.at); then, if non-nil, runs from the
// event's handler after the firing is logged.
func (o *orderOracle) schedule(delay Time, then func()) *Event {
	id := len(o.at)
	o.at = append(o.at, o.e.Now()+delay)
	o.canceled = append(o.canceled, false)
	return o.e.Schedule(delay, func() {
		o.fired = append(o.fired, id)
		if then != nil {
			then()
		}
	})
}

func (o *orderOracle) cancel(id int, ev *Event) {
	o.canceled[id] = true
	o.e.Cancel(ev)
}

// runAndCheck drains the engine and requires the fired sequence to equal
// the scheduled events sorted by (at, seq), cancelled ones removed.
func (o *orderOracle) runAndCheck(t *testing.T) {
	t.Helper()
	if err := o.e.Run(); err != nil {
		t.Fatal(err)
	}
	var want []int
	for id := range o.at {
		if !o.canceled[id] {
			want = append(want, id)
		}
	}
	sort.SliceStable(want, func(i, j int) bool { return o.at[want[i]] < o.at[want[j]] })
	if len(o.fired) != len(want) {
		t.Fatalf("fired %d events, want %d", len(o.fired), len(want))
	}
	for i := range want {
		if o.fired[i] != want[i] {
			t.Fatalf("dispatch order diverges at %d: fired event %d (at %v), want %d (at %v)",
				i, o.fired[i], o.at[o.fired[i]], want[i], o.at[want[i]])
		}
	}
}

func tag(log *[]int, id int) Handler {
	return func() { *log = append(*log, id) }
}

// TestCalendarMatchesHeapRandom fuzzes mixed short/long horizons: delays
// from sub-bucket to far past the ring span, with duplicate timestamps
// so the seq tie-break is exercised in buckets and in the overflow heap.
func TestCalendarMatchesHeapRandom(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := NewRNG(seed)
		o := &orderOracle{e: NewEngine()}
		for i := 0; i < 3000; i++ {
			var d Time
			switch rng.Intn(5) {
			case 4: // the last ring bucket and the first two overflow ones
				d = Time(calBuckets-1+rng.Intn(3)) << calShift
			case 0: // same-bucket ties
				d = Time(rng.Intn(3)) * time.Millisecond
			case 1: // MRAI-like clustering
				d = Time(500+rng.Intn(1750)) * time.Millisecond
			case 2: // inside the ring horizon
				d = Time(rng.Intn(4_000_000_000))
			default: // far beyond the horizon: overflow + migration
				d = Time(rng.Intn(60)) * time.Second
			}
			o.schedule(d, nil)
		}
		o.runAndCheck(t)
	}
}

// TestCalendarMatchesHeapNested pins the simulator's dominant pattern —
// handlers scheduling more events — where pushes interleave with pops
// and the clock (and ring anchor) advances between them.
func TestCalendarMatchesHeapNested(t *testing.T) {
	rng := NewRNG(42)
	o := &orderOracle{e: NewEngine()}
	var step func() // each firing schedules two more, with varying horizons
	step = func() {
		for k := 0; k < 2 && len(o.at) < 2000; k++ {
			o.schedule(Time(rng.Intn(5_000_000_000)), step)
		}
	}
	o.schedule(0, step)
	o.runAndCheck(t)
	if len(o.fired) != 2000 {
		t.Fatalf("fired %d events, want 2000", len(o.fired))
	}
}

// TestCalendarMatchesHeapCancel pins that lazily drained cancellations
// do not perturb the order of surviving events.
func TestCalendarMatchesHeapCancel(t *testing.T) {
	rng := NewRNG(9)
	o := &orderOracle{e: NewEngine()}
	evs := make([]*Event, 1000)
	for i := range evs {
		evs[i] = o.schedule(Time(rng.Intn(10_000_000_000)), nil)
	}
	for i := 0; i < len(evs); i += 3 {
		o.cancel(i, evs[i])
	}
	o.runAndCheck(t)
}

// TestCalendarScheduleBehindAnchor exercises the bucket-clamping path:
// RunUntil stops the clock at a deadline while the queue minimum (and so
// the ring anchor, once peeked) sits far ahead; a subsequent schedule
// lands logically "before" the anchor bucket and must still fire first.
func TestCalendarScheduleBehindAnchor(t *testing.T) {
	e := NewEngine()
	var log []int
	e.ScheduleAt(10*time.Second, tag(&log, 1))
	if err := e.RunUntil(1 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(log) != 0 {
		t.Fatal("event fired before its time")
	}
	// 1.5s is an earlier bucket than the 10s event the ring is anchored
	// on; clamping must not reorder the two.
	e.ScheduleAt(1500*time.Millisecond, tag(&log, 2))
	e.ScheduleAt(1500*time.Millisecond, tag(&log, 3)) // seq tie-break within clamped bucket
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []int{2, 3, 1}; !slices.Equal(log, want) {
		t.Fatalf("fire order %v, want %v", log, want)
	}

	// The same with nothing left in the anchor bucket: peeking past a
	// cancelled event moves the anchor to its bucket and drains it, so
	// the next schedules land behind an anchor whose heap is empty and
	// must be clamped into its chain, not filed under their own slots.
	e, log = NewEngine(), nil
	e.Cancel(e.ScheduleAt(10*time.Second, tag(&log, 1)))
	if err := e.RunUntil(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	e.ScheduleAt(2*time.Second, tag(&log, 2))
	e.ScheduleAt(1*time.Second, tag(&log, 3)) // an earlier ring slot than the anchor's
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []int{3, 2}; !slices.Equal(log, want) {
		t.Fatalf("fire order behind a drained anchor %v, want %v", log, want)
	}
}

// TestCalendarEngineReset pins that a Reset engine re-anchors the ring
// at the epoch: a reused engine must accept and correctly order
// schedules near time zero after a previous run pushed the anchor out.
func TestCalendarEngineReset(t *testing.T) {
	e := NewEngine()
	done := 0
	e.ScheduleAt(30*time.Second, func() { done++ })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Reset()
	var log []int
	e.ScheduleAt(2*time.Millisecond, tag(&log, 1))
	e.ScheduleAt(1*time.Millisecond, tag(&log, 2))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 1 || len(log) != 2 || log[0] != 2 || log[1] != 1 {
		t.Fatalf("post-Reset order %v (done=%d), want [2 1]", log, done)
	}
}

// burstShape schedules 40 000 events inside one bucket, the same again
// 1 000 buckets later, then a sparse tail out past the ring's horizon,
// and cancels every seventh event: the shape of a convergence storm,
// where one bucket holds nearly the whole queue. bursts = 1 leaves the
// second burst out.
func burstShape(o *orderOracle, bursts int) {
	const perBurst = 40000
	rng := NewRNG(5)
	var evs []*Event
	for b := 0; b < bursts; b++ {
		base := Time(b*1000) << calShift
		for i := 0; i < perBurst; i++ {
			evs = append(evs, o.schedule(base+Time(rng.Intn(1<<calShift)), nil))
		}
	}
	for i := 0; i < 200; i++ {
		evs = append(evs, o.schedule(Time(rng.Intn(20_000))*time.Millisecond, nil))
	}
	for id := 0; id < len(evs); id += 7 {
		o.cancel(id, evs[id])
	}
}

// TestCalendarMatchesHeapBurst pins the order on the burst shape, and
// that a dense bucket is paid for once: the second burst reuses the heap
// array and the event objects of the first, so an engine that drains two
// bursts allocates at most 1.2 × what one burst costs it.
func TestCalendarMatchesHeapBurst(t *testing.T) {
	o := &orderOracle{e: NewEngine()}
	burstShape(o, 2)
	o.runAndCheck(t)

	// A bare engine and one shared handler, so everything TotalAlloc
	// sees is the engine's: event chunks and the heap array.
	engineAlloc := func(bursts int) uint64 {
		e := NewEngine()
		fn := func() {}
		rng := NewRNG(5)
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		for k := 0; k < bursts; k++ {
			for i := 0; i < 40000; i++ {
				e.Schedule(Time(rng.Intn(1<<calShift)), fn)
			}
			if err := e.RunUntil(e.Now() + 1000<<calShift); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&b)
		return b.TotalAlloc - a.TotalAlloc
	}
	one, two := engineAlloc(1), engineAlloc(2)
	t.Logf("one burst %d B, two bursts %d B", one, two)
	if one < 40000*uint64(unsafe.Sizeof(Event{})) {
		t.Fatalf("one burst allocated %d B, less than its events: the measurement is broken", one)
	}
	if 10*two > 12*one {
		t.Errorf("two bursts allocated %d B, more than 1.2 x one burst's %d B", two, one)
	}
}

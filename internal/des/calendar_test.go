package des

import (
	"errors"
	"math"
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
	o.check(t, Time(math.MaxInt64))
}

// check requires the fired sequence to equal the events due by deadline
// sorted by (at, seq), cancelled ones removed: what a run that stopped
// at deadline must have fired.
func (o *orderOracle) check(t *testing.T, deadline Time) {
	t.Helper()
	var want []int
	for id := range o.at {
		if !o.canceled[id] && o.at[id] <= deadline {
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

// testLane is a Lane of one fixed delay, as a model keeps one: a FIFO of
// oracle events keyed by Stamp when they are pushed.
type testLane struct {
	o     *orderOracle
	delay Time
	q     []laneItem
}

type laneItem struct {
	at   Time
	seq  uint64
	id   int
	then func()
}

func (l *testLane) Head() (Time, uint64, bool) {
	if len(l.q) == 0 {
		return 0, 0, false
	}
	return l.q[0].at, l.q[0].seq, true
}

func (l *testLane) Fire() {
	it := l.q[0]
	l.q = l.q[1:]
	l.o.fired = append(l.o.fired, it.id)
	if it.then != nil {
		it.then()
	}
}

func (l *testLane) Len() int { return len(l.q) }
func (l *testLane) Clear()   { l.q = nil }

// push puts event id = len(o.at) on lane l; then, if non-nil, runs when
// it fires, after the firing is logged.
func (o *orderOracle) push(l *testLane, then func()) {
	id := len(o.at)
	at, seq := o.e.Stamp(l.delay)
	o.at = append(o.at, at)
	o.canceled = append(o.canceled, false)
	l.q = append(l.q, laneItem{at, seq, id, then})
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

// TestLanesMatchOracle pins the order across the queue and two lanes of
// fixed delay (25 ms and 1 ms, the model's two session kinds) on random
// mixes: queued events at delays that tie with lane entries, inside the
// ring and past its horizon, a fifth of them cancelled; handlers that
// schedule and push more; RunUntil deadlines, after each of which the
// engine must have fired exactly the events due by then and counted
// every one of them, lane fires included; and rounds that end in a Reset
// in mid-run, which must leave nothing pending, instead of a full drain.
func TestLanesMatchOracle(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := NewRNG(seed)
		e := NewEngine()
		o := &orderOracle{e: e}
		lanes := []*testLane{{o: o, delay: 25 * time.Millisecond}, {o: o, delay: time.Millisecond}}
		for _, l := range lanes {
			e.AddLane(l)
		}
		var add func()
		add = func() {
			if len(o.at) >= 4000 {
				return
			}
			var then func()
			if rng.Intn(2) == 0 {
				then = func() {
					for k := rng.Intn(3); k > 0; k-- {
						add()
					}
				}
			}
			switch k := rng.Intn(5); k {
			case 0, 1:
				o.push(lanes[k], then)
			default:
				var d Time
				switch rng.Intn(4) {
				case 0: // ties with the lanes' entries
					d = []Time{0, time.Millisecond, 25 * time.Millisecond}[rng.Intn(3)]
				case 1:
					d = Time(rng.Intn(3_000_000_000))
				case 2: // past the ring's horizon
					d = Time(rng.Intn(20)) * time.Second
				default:
					d = Time(rng.Intn(30)) * time.Millisecond
				}
				id := len(o.at)
				ev := o.schedule(d, then)
				if rng.Intn(5) == 0 {
					o.cancel(id, ev)
				}
			}
		}
		for round := 0; round < 4; round++ {
			*o = orderOracle{e: e}
			for i := 0; i < 300; i++ {
				add()
			}
			var deadline Time
			for stop := 0; stop < 6; stop++ {
				deadline += Time(rng.Intn(400)) * time.Millisecond
				if err := e.RunUntil(deadline); err != nil {
					t.Fatal(err)
				}
				o.check(t, deadline)
				if got := e.Processed(); got != uint64(len(o.fired)) {
					t.Fatalf("seed %d round %d: Processed %d after %d fires", seed, round, got, len(o.fired))
				}
				for i := 0; i < 20; i++ {
					add()
				}
			}
			if round%2 == 1 {
				e.Reset()
				if n, p := e.Pending(), e.Processed(); n != 0 || p != 0 || lanes[0].Len()+lanes[1].Len() != 0 {
					t.Fatalf("seed %d: Reset in mid-run left %d pending, %d processed", seed, n, p)
				}
				continue
			}
			o.runAndCheck(t)
			if got := e.Processed(); got != uint64(len(o.fired)) {
				t.Fatalf("seed %d round %d: Processed %d after %d fires", seed, round, got, len(o.fired))
			}
			e.Reset()
		}
	}
}

// TestLaneCounts pins that lane entries are events to every count the
// engine keeps: Pending includes them, Processed and the maxEvents
// horizon count their fires, the cancellation probe runs on their
// stride, and Reset drops them.
func TestLaneCounts(t *testing.T) {
	e := NewEngine()
	o := &orderOracle{e: e}
	l := &testLane{o: o, delay: time.Millisecond}
	e.AddLane(l)
	for i := 0; i < 3; i++ {
		o.push(l, nil)
		o.schedule(2*time.Millisecond, nil)
	}
	if n := e.Pending(); n != 6 {
		t.Fatalf("Pending = %d with 3 queued and 3 on the lane, want 6", n)
	}
	if !e.Step() || e.Processed() != 1 || e.Pending() != 5 || l.Len() != 2 || e.Now() != time.Millisecond {
		t.Fatalf("after one step: processed %d, pending %d, lane %d, now %v; want the lane's head fired at 1ms",
			e.Processed(), e.Pending(), l.Len(), e.Now())
	}
	e.SetMaxEvents(2)
	if err := e.Run(); !errors.Is(err, ErrHorizon) || e.Processed() != 3 {
		t.Fatalf("Run under a 2-event horizon: %v after %d processed, want ErrHorizon after 3", err, e.Processed())
	}
	e.Reset()
	if e.Pending() != 0 || l.Len() != 0 || e.Processed() != 0 {
		t.Fatalf("Reset left %d pending (%d on the lane), %d processed", e.Pending(), l.Len(), e.Processed())
	}

	e.SetMaxEvents(0)
	for i := 0; i < cancelStride+100; i++ {
		o.push(l, nil)
	}
	probes := 0
	e.SetCancel(func() bool { probes++; return probes == 2 })
	if err := e.Run(); !errors.Is(err, ErrCanceled) || e.Processed() != cancelStride {
		t.Fatalf("Run with a probe that cancels on its second call: %v after %d lane fires, want ErrCanceled after %d",
			err, e.Processed(), cancelStride)
	}
}

// TestLaneOutOfOrderPanics pins that the engine does not silently accept
// a lane that breaks the key order: an entry behind the clock is a model
// bug, and firing it panics instead of running time backwards.
func TestLaneOutOfOrderPanics(t *testing.T) {
	e := NewEngine()
	l := &testLane{o: &orderOracle{e: e}}
	e.AddLane(l)
	late, lateSeq := e.Stamp(10 * time.Millisecond)
	early, earlySeq := e.Stamp(5 * time.Millisecond)
	l.q = append(l.q, laneItem{at: late, seq: lateSeq}, laneItem{at: early, seq: earlySeq})
	defer func() {
		if recover() == nil {
			t.Fatal("a lane entry behind the clock fired without a panic")
		}
	}()
	e.Run()
}

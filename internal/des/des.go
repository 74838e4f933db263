// Package des implements a deterministic discrete-event simulation kernel.
//
// The kernel is intentionally minimal: a simulated clock, a priority queue
// of events ordered by (time, insertion sequence), and seeded random-number
// streams. Determinism is a hard requirement for the BGP experiments built
// on top — two runs with the same seed must produce byte-identical results —
// so ties between events scheduled for the same instant are broken by
// insertion order, never by map iteration or heap instability.
//
// The event queue is a lazy calendar (bucket) queue around one 4-ary
// min-heap (see calendar.go), but that is invisible to callers: (timestamp,
// insertion sequence) is a strict total order over queued events, so the
// pop sequence — and therefore all simulation output — is independent of
// the queue's internal layout. Any replacement queue must preserve
// exactly this tie-break: timestamp first, then insertion order.
//
// The order spans more than the queue. A model may register lanes (Lane):
// FIFOs it keeps itself, of entries keyed from the same sequence counter
// (Stamp), which the engine fires merged with the queue by the one
// (timestamp, sequence) order. Whether an event waits in the queue or on a
// lane changes its cost, never its place in that order.
package des

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Time is a simulated instant, measured as an offset from the start of the
// simulation. The zero Time is the simulation epoch.
type Time = time.Duration

// Handler is the callback invoked when an event fires. It runs with the
// engine clock set to the event's timestamp.
type Handler func()

// Runner is the allocation-free counterpart to Handler. Scheduling a
// closure allocates it on the heap once per event; hot-path callers
// (CPU-completion and flush timers in the BGP model) instead implement
// Runner on a long-lived object and schedule it with ScheduleRunnerAt,
// so steady-state event dispatch allocates nothing.
type Runner interface {
	// Run is invoked when the event fires, with the engine clock set to
	// the event's timestamp.
	Run()
}

// A Lane is a FIFO of events a model keeps outside the engine's queue:
// typically messages on links of one fixed delay, which arrive in the
// order they were sent and so need no heap and no Event each. The model
// keys every entry with Stamp when it pushes it and must push in key
// order; the engine fires lane heads and queued events by the one (at,
// seq) order, counts a lane fire as a processed event, includes lane
// entries in Pending and clears the lanes on Reset.
type Lane interface {
	// Head returns the key of the first entry; ok is false on an empty lane.
	Head() (at Time, seq uint64, ok bool)
	// Fire removes the first entry and acts on it, with the clock at its time.
	Fire()
	// Len returns the number of entries.
	Len() int
	// Clear drops every entry unfired.
	Clear()
}

// ErrHorizon is returned by Run variants when the configured event horizon
// is exceeded, which almost always indicates a scheduling loop in the model.
var ErrHorizon = errors.New("des: event horizon exceeded")

// ErrCanceled is returned by Run variants when the cancellation probe
// installed with SetCancel reports true. The simulation stops between
// events: the clock and queue remain valid but the run is abandoned.
var ErrCanceled = errors.New("des: run canceled")

// Event is a scheduled callback. Events are created by Engine.Schedule and
// may be canceled before they fire.
//
// Events are pooled: the engine carves Event objects from chunks it keeps
// for its lifetime, and once an event has fired (or its cancellation has
// been drained from the queue) recycles the object for a future Schedule
// call. A caller must therefore drop its *Event reference no later
// than the event's own handler; calling Cancel, At, or Canceled on a
// reference retained past that point observes (or corrupts) an unrelated
// later event. The in-tree callers all clear their reference from the
// firing handler itself, or only cancel events they know are still queued.
type Event struct {
	at      Time
	seq     uint64
	next    *Event // link of the ring-bucket chain or the free chain holding the event
	fn      Handler
	runner  Runner
	stopped bool
}

// At reports the simulated time the event will fire (or would have fired,
// if canceled).
func (e *Event) At() Time { return e.at }

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e.stopped }

// Engine is a single simulation instance. An Engine is not safe for
// concurrent use; run independent simulations on independent Engines
// (one per goroutine) instead.
type Engine struct {
	now       Time
	seq       uint64
	queue     calendarQueue
	lanes     []Lane
	free      *Event  // recycled Event objects, chained through next (see Event)
	spare     []Event // unissued tail of the newest event chunk
	made      int     // Event objects carved so far
	processed uint64
	maxEvents uint64
	cancel    func() bool // polled every cancelStride events; nil = never
}

// Event objects come from chunks that double from eventChunkMin to
// eventChunkMax objects: one malloc per chunk instead of one per event,
// a first chunk a 30-node trial does not outgrow by much, and at most one
// capped chunk of slack above the peak number of queued events.
const (
	eventChunkMin = 16
	eventChunkMax = 256
)

// cancelStride is how many events fire between cancellation probes. The
// probe (typically ctx.Err) costs a lock, so it is amortized; a stride
// of 1024 bounds the post-cancel overrun to ~1k events, microseconds of
// wall clock.
const cancelStride = 1024

// DefaultMaxEvents bounds a single Run to guard against runaway scheduling
// loops in model code. It is far above anything the BGP experiments need.
const DefaultMaxEvents = 200_000_000

// NewEngine returns an engine with the clock at the epoch. The event
// queue is a calendar queue (see calendar.go).
func NewEngine() *Engine {
	return &Engine{maxEvents: DefaultMaxEvents}
}

// SetMaxEvents overrides the runaway-loop guard. A value of zero restores
// the default.
func (e *Engine) SetMaxEvents(n uint64) {
	if n == 0 {
		n = DefaultMaxEvents
	}
	e.maxEvents = n
}

// SetCancel installs (or with nil removes) a cancellation probe. Run
// variants call it once every cancelStride fired events and stop with
// ErrCanceled when it reports true — the hook that lets a
// context.Context (Ctrl-C, coordinator shutdown) abort an in-flight
// simulation between events instead of abandoning it. The probe must be
// cheap and is called from the simulation goroutine only. Reset clears
// the probe: cancellation belongs to one run, not to the engine.
func (e *Engine) SetCancel(cancel func() bool) {
	e.cancel = cancel
}

// Reset rewinds the engine to its post-NewEngine state: the clock returns
// to the epoch, the sequence and processed counters restart at zero, and
// any still-queued events are discarded (their handlers never fire) and
// every lane is cleared; the lanes stay registered.
// Discarded and previously fired Event objects are retained on the free
// list, which is the point: a reset engine re-runs a simulation without
// re-paying event allocation. The maxEvents override is preserved.
func (e *Engine) Reset() {
	for e.queue.Len() > 0 {
		ev := e.queue.Pop()
		ev.fn, ev.runner = nil, nil
		e.recycle(ev)
	}
	e.queue.rewind()
	for _, l := range e.lanes {
		l.Clear()
	}
	e.now = 0
	e.seq = 0
	e.processed = 0
	e.cancel = nil
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events scheduled but not yet fired,
// including canceled events that have not been drained and lane entries.
func (e *Engine) Pending() int {
	n := e.queue.Len()
	for _, l := range e.lanes {
		n += l.Len()
	}
	return n
}

// AddLane registers l, whose entries the engine fires from now on in
// order with its queue.
func (e *Engine) AddLane(l Lane) { e.lanes = append(e.lanes, l) }

// Stamp returns the key of a lane entry due after delay (a negative delay
// is treated as zero): its time and the next sequence number, so the
// entry takes the place in the (at, seq) order that an event scheduled
// now with that delay would.
func (e *Engine) Stamp(delay Time) (Time, uint64) {
	e.seq++
	return e.now + max(delay, 0), e.seq
}

// Schedule arranges for fn to run after delay. A negative delay is treated
// as zero (fire as soon as possible, after already-queued events at the
// current instant). The returned event may be passed to Cancel.
func (e *Engine) Schedule(delay Time, fn Handler) *Event {
	if delay < 0 {
		delay = 0
	}
	return e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt arranges for fn to run at absolute time at. Scheduling in the
// past panics: it is a model bug, not a recoverable condition.
func (e *Engine) ScheduleAt(at Time, fn Handler) *Event {
	if fn == nil {
		// Invariant: callers pass a handler they own; nil is a model bug.
		panic("des: schedule nil handler")
	}
	ev := e.alloc(at)
	ev.fn = fn
	return ev
}

// ScheduleRunnerAt arranges for r.Run to fire at absolute time at, like
// ScheduleAt but without the per-event closure allocation.
func (e *Engine) ScheduleRunnerAt(at Time, r Runner) *Event {
	if r == nil {
		// Invariant: callers pass a long-lived runner; nil is a model bug.
		panic("des: schedule nil runner")
	}
	ev := e.alloc(at)
	ev.runner = r
	return ev
}

// alloc takes an Event from the free list (or carves a new one), stamps
// it with (at, next sequence number), and queues it. The handler fields are
// left for the caller to fill in.
func (e *Engine) alloc(at Time) *Event {
	if at < e.now {
		// Invariant: every model computes event times forward from Now;
		// a past time is a model bug, never reachable from input.
		panic(fmt.Sprintf("des: schedule at %v before now %v", at, e.now))
	}
	e.seq++
	ev := e.free
	if ev != nil {
		e.free = ev.next
	} else {
		if len(e.spare) == 0 {
			e.spare = make([]Event, min(max(e.made, eventChunkMin), eventChunkMax))
			e.made += len(e.spare)
		}
		ev, e.spare = &e.spare[0], e.spare[1:]
	}
	*ev = Event{at: at, seq: e.seq}
	e.queue.Push(ev)
	return ev
}

// recycle returns a popped event to the free list. Callers must have
// cleared fn/runner (or be handing over a canceled event, whose fields
// Cancel already cleared).
func (e *Engine) recycle(ev *Event) {
	ev.next = e.free
	e.free = ev
}

// Cancel marks an event so it will not fire. Canceling nil or an
// already-canceled event is a no-op. Canceling an event that has already
// fired is undefined (see Event): the object may describe a different,
// still-live event by then.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil {
		return
	}
	ev.stopped = true
	ev.fn = nil
	ev.runner = nil
}

// Step fires the next event. It reports false if nothing is pending.
func (e *Engine) Step() bool {
	lane, at, ok := e.next()
	if ok {
		e.fire(lane, at)
	}
	return ok
}

// next finds the engine's next live event, draining canceled events
// queued ahead of it: the lane it heads (-1 for the queue) and its time.
// ok is false when nothing is pending.
func (e *Engine) next() (lane int, at Time, ok bool) {
	lane = -1
	var seq uint64
	if ev := e.peekNext(); ev != nil {
		at, seq, ok = ev.at, ev.seq, true
	}
	for i, l := range e.lanes {
		if la, ls, lok := l.Head(); lok && (!ok || la < at || la == at && ls < seq) {
			lane, at, seq, ok = i, la, ls, true
		}
	}
	return lane, at, ok
}

// fire runs the event next found at time at.
func (e *Engine) fire(lane int, at Time) {
	if lane >= 0 && at < e.now {
		// Invariant: a lane is pushed in key order (Lane); an entry behind
		// the clock is a model bug, never reachable from input.
		panic(fmt.Sprintf("des: lane entry at %v before now %v", at, e.now))
	}
	e.now = at
	e.processed++
	if lane >= 0 {
		e.lanes[lane].Fire()
		return
	}
	ev := e.queue.Pop()
	fn, r := ev.fn, ev.runner
	ev.fn, ev.runner = nil, nil
	if r != nil {
		r.Run()
	} else {
		fn()
	}
	// Recycled only after the handler returns, so a handler can never
	// be handed its own event object for a fresh Schedule call.
	e.recycle(ev)
}

// Run fires events until nothing is pending. It returns ErrHorizon if the
// event budget is exhausted first.
func (e *Engine) Run() error {
	return e.RunUntil(Time(math.MaxInt64))
}

// peekNext returns the queue's next live event, draining canceled
// events queued ahead of it. nil when no live event is queued.
func (e *Engine) peekNext() *Event {
	for e.queue.Len() > 0 {
		ev := e.queue.Peek()
		if ev.stopped {
			e.recycle(e.queue.Pop())
			continue
		}
		return ev
	}
	return nil
}

// RunUntil fires events with timestamps <= deadline, advancing the clock to
// at most deadline. Events beyond the deadline remain queued.
func (e *Engine) RunUntil(deadline Time) error {
	start := e.processed
	for {
		lane, at, ok := e.next()
		if !ok || at > deadline {
			break
		}
		if e.processed-start >= e.maxEvents {
			return ErrHorizon
		}
		if e.cancel != nil && e.processed%cancelStride == 0 && e.cancel() {
			return ErrCanceled
		}
		e.fire(lane, at)
	}
	if e.now < deadline && deadline != Time(math.MaxInt64) {
		e.now = deadline
	}
	return nil
}

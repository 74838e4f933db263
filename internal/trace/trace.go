// Package trace is the simulator's structured event log. A Tracer
// receives every protocol-level event (sends, receives, decision
// changes, timer restarts, failures); the Recorder implementation stores
// them for inspection. Tracing is off by default — the simulator calls
// through a nil-safe façade so the hot path pays one branch when
// disabled.
package trace

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Kind classifies an event.
type Kind int

// Event kinds.
const (
	// KindSend is a route-level update leaving a router.
	KindSend Kind = iota + 1
	// KindReceive is an update entering a router's input queue.
	KindReceive
	// KindProcess is the completion of a processing work unit.
	KindProcess
	// KindRouteChange is a Loc-RIB change.
	KindRouteChange
	// KindTimerRestart is a per-peer MRAI timer restart.
	KindTimerRestart
	// KindNodeFailure is a router death.
	KindNodeFailure
	// KindSessionDown is a surviving router detecting a dead peer.
	KindSessionDown
	// KindNodeRecovery is a router coming back.
	KindNodeRecovery
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindSend:
		return "send"
	case KindReceive:
		return "recv"
	case KindProcess:
		return "proc"
	case KindRouteChange:
		return "route"
	case KindTimerRestart:
		return "timer"
	case KindNodeFailure:
		return "fail"
	case KindSessionDown:
		return "session-down"
	case KindNodeRecovery:
		return "recover"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one simulator occurrence.
type Event struct {
	At   time.Duration
	Kind Kind
	// Node is the router the event happened at.
	Node int
	// Peer is the other endpoint for send/receive/session events (-1
	// when not applicable).
	Peer int
	// Dest is the destination prefix (-1 when not applicable).
	Dest int
	// Withdrawal marks send/receive of a withdrawal.
	Withdrawal bool
	// Value carries kind-specific data: the new MRAI for timer restarts,
	// the batch size for process events, the new path length for route
	// changes (-1 = route lost).
	Value int
}

// String formats the event as one log line.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%12s %-12s node=%d", e.At, e.Kind, e.Node)
	if e.Peer >= 0 {
		fmt.Fprintf(&b, " peer=%d", e.Peer)
	}
	if e.Dest >= 0 {
		fmt.Fprintf(&b, " dest=%d", e.Dest)
	}
	if e.Withdrawal {
		b.WriteString(" withdrawal")
	}
	switch e.Kind {
	case KindTimerRestart:
		fmt.Fprintf(&b, " mrai=%s", time.Duration(e.Value))
	case KindProcess:
		fmt.Fprintf(&b, " batch=%d", e.Value)
	case KindRouteChange:
		fmt.Fprintf(&b, " pathlen=%d", e.Value)
	}
	return b.String()
}

// Tracer receives events. Implementations must be cheap; the simulator
// may deliver millions of events per run.
type Tracer interface {
	Trace(e Event)
}

// recorderChunkSize is the event capacity of one arena chunk. 4096
// events × ~64 bytes keeps each chunk around page-multiple size without
// wasting much on short runs.
const recorderChunkSize = 4096

// Recorder stores every event in memory. Safe for concurrent use.
//
// Storage is a chunked arena: events append into fixed-capacity chunks,
// so a run that delivers millions of events never copies the ones it has
// already recorded.
type Recorder struct {
	mu     sync.Mutex
	chunks [][]Event // recorded events; all chunks but the last are full
	n      int       // total recorded events
}

var _ Tracer = (*Recorder)(nil)

// Trace stores the event.
func (r *Recorder) Trace(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	last := len(r.chunks) - 1
	if last < 0 || len(r.chunks[last]) == cap(r.chunks[last]) {
		r.chunks = append(r.chunks, make([]Event, 0, recorderChunkSize))
		last++
	}
	r.chunks[last] = append(r.chunks[last], e)
	r.n++
}

// Events returns a copy of the recorded events in order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, r.n)
	for _, c := range r.chunks {
		out = append(out, c...)
	}
	return out
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// CountByKind tallies recorded events per kind.
func (r *Recorder) CountByKind() map[Kind]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[Kind]int)
	for _, c := range r.chunks {
		for _, e := range c {
			out[e.Kind]++
		}
	}
	return out
}

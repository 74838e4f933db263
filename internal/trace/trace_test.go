package trace

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func ev(k Kind) Event {
	return Event{At: time.Second, Kind: k, Node: 1, Peer: 2, Dest: 3}
}

func TestRecorderStoresInOrder(t *testing.T) {
	r := &Recorder{}
	r.Trace(ev(KindSend))
	r.Trace(ev(KindReceive))
	r.Trace(ev(KindProcess))
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
	events := r.Events()
	if events[0].Kind != KindSend || events[2].Kind != KindProcess {
		t.Error("order lost")
	}
	// Events() returns a copy.
	events[0].Kind = KindNodeFailure
	if r.Events()[0].Kind != KindSend {
		t.Error("Events exposed internal slice")
	}
}

// TestRecorderAcrossChunks records past one arena chunk: Len and Events
// agree and keep the order.
func TestRecorderAcrossChunks(t *testing.T) {
	r := &Recorder{}
	const n = recorderChunkSize + 5
	for i := 0; i < n; i++ {
		r.Trace(Event{Kind: KindSend, Node: i})
	}
	got := r.Events()
	if r.Len() != n || len(got) != n {
		t.Fatalf("Len %d, %d events, want %d", r.Len(), len(got), n)
	}
	for i, e := range got {
		if e.Node != i {
			t.Fatalf("event %d is node %d", i, e.Node)
		}
	}
}

// TestRecorderZeroValueIsEmpty: a bare Recorder, as cmd/bgptrace makes
// one, reads as empty before anything is traced.
func TestRecorderZeroValueIsEmpty(t *testing.T) {
	r := &Recorder{}
	if r.Len() != 0 || len(r.Events()) != 0 || len(r.CountByKind()) != 0 {
		t.Fatalf("zero Recorder: Len %d, %d events, counts %v", r.Len(), len(r.Events()), r.CountByKind())
	}
}

// TestRecorderSteadyStateAllocationFree pins the arena contract: an
// event traced into a chunk with room allocates nothing, and a run
// allocates one chunk per recorderChunkSize events, never copying the
// events it has already recorded.
func TestRecorderSteadyStateAllocationFree(t *testing.T) {
	r := &Recorder{}
	e := ev(KindSend)
	r.Trace(e) // the first chunk
	if avg := testing.AllocsPerRun(100, func() { r.Trace(e) }); avg != 0 {
		t.Errorf("Trace into a chunk with room allocates %.2f objects/op, want 0", avg)
	}
	r = &Recorder{}
	run := func() {
		for i := 0; i < 3*recorderChunkSize; i++ {
			r.Trace(e)
		}
	}
	// Three chunks, plus at most the growth of the chunk list itself.
	if avg := testing.AllocsPerRun(1, run); avg > 6 {
		t.Errorf("tracing %d events allocates %.0f objects, want at most 6", 3*recorderChunkSize, avg)
	}
}

// TestRecorderConcurrentTrace: the Recorder is safe for concurrent use;
// events traced from several goroutines are all kept.
func TestRecorderConcurrentTrace(t *testing.T) {
	const goroutines, each = 4, recorderChunkSize/2 + 3
	r := &Recorder{}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Trace(Event{Kind: KindSend, Node: g, Value: i})
			}
		}(g)
	}
	wg.Wait()
	if r.Len() != goroutines*each {
		t.Fatalf("Len = %d, want %d", r.Len(), goroutines*each)
	}
	// Each goroutine's events keep their own order.
	next := make([]int, goroutines)
	for _, e := range r.Events() {
		if e.Value != next[e.Node] {
			t.Fatalf("goroutine %d: event %d came before event %d", e.Node, e.Value, next[e.Node])
		}
		next[e.Node]++
	}
}

func TestRecorderCountByKind(t *testing.T) {
	r := &Recorder{}
	r.Trace(ev(KindSend))
	r.Trace(ev(KindSend))
	r.Trace(ev(KindProcess))
	counts := r.CountByKind()
	if counts[KindSend] != 2 || counts[KindProcess] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []Kind{KindSend, KindReceive, KindProcess, KindRouteChange,
		KindTimerRestart, KindNodeFailure, KindSessionDown, KindNodeRecovery}
	seen := make(map[string]bool)
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d has bad/duplicate name %q", int(k), s)
		}
		seen[s] = true
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind empty")
	}
}

func TestEventStringVariants(t *testing.T) {
	e := Event{At: time.Second, Kind: KindProcess, Node: 1, Peer: -1, Dest: -1, Value: 7}
	if !strings.Contains(e.String(), "batch=7") {
		t.Error(e.String())
	}
	e = Event{At: time.Second, Kind: KindRouteChange, Node: 1, Peer: -1, Dest: 5, Value: -1}
	if !strings.Contains(e.String(), "pathlen=-1") {
		t.Error(e.String())
	}
	// Negative peer/dest are omitted.
	if strings.Contains(e.String(), "peer=") {
		t.Error("negative peer printed")
	}
	e = Event{At: 2 * time.Second, Kind: KindSend, Node: 4, Peer: 7, Dest: 9, Withdrawal: true}
	for _, want := range []string{"send", "node=4", "peer=7", "dest=9", "withdrawal"} {
		if !strings.Contains(e.String(), want) {
			t.Errorf("%q missing %q", e.String(), want)
		}
	}
	e = Event{At: 3 * time.Second, Kind: KindTimerRestart, Node: 4, Peer: -1, Dest: -1, Value: int(time.Second)}
	if !strings.Contains(e.String(), "mrai=1s") {
		t.Error(e.String())
	}
}

package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer's public function. Start and End
// are nanoseconds since the tracer was created; Parent is the index of
// the enclosing span (-1 for a root); ID is the trial or job the span
// belongs to, so the spans of one trial share an identifier.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	ID     int    `json:"id"`
}

// tracer keeps spans in memory; nothing is written until the run ends.
// A nil tracer records nothing, which is how the untraced passes run
// the same code. It is safe for concurrent use because dist-sweep's
// request handlers run on the HTTP server's goroutines.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index (-1 from a nil tracer).
func (t *tracer) begin(name string, parent, id int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, ID: id})
	return len(t.spans) - 1
}

// now is the tracer's clock: nanoseconds since it was created.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch).Nanoseconds()
}

// record adds a finished span whose ends were stamped with now.
func (t *tracer) record(name string, parent, id int, start, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, ID: id})
	t.mu.Unlock()
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// seconds returns the duration of every span called name, in start order.
func (t *tracer) seconds(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// writeJSON dumps the spans to path.
func (t *tracer) writeJSON(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

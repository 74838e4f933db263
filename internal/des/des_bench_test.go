package des

import (
	"fmt"
	"testing"
	"time"
)

func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.Schedule(time.Duration(j%97)*time.Millisecond, func() {})
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNestedScheduling(b *testing.B) {
	// The simulator's dominant pattern: handlers scheduling more work.
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		remaining := 10000
		var step Handler
		step = func() {
			if remaining > 0 {
				remaining--
				e.Schedule(time.Millisecond, step)
			}
		}
		e.Schedule(0, step)
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCancelHeavy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		events := make([]*Event, 1000)
		for j := range events {
			events[j] = e.Schedule(time.Duration(j)*time.Millisecond, func() {})
		}
		for j := 0; j < len(events); j += 2 {
			e.Cancel(events[j])
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// holdLane is a lane of one fixed delay whose every fire pushes its
// successor, so it holds a constant number of entries in a ring.
type holdLane struct {
	e     *Engine
	delay Time
	q     []laneItem
	head  int
}

func (l *holdLane) Head() (Time, uint64, bool) { return l.q[l.head].at, l.q[l.head].seq, true }
func (l *holdLane) Len() int                   { return len(l.q) }
func (l *holdLane) Clear()                     {}

func (l *holdLane) Fire() {
	at, seq := l.e.Stamp(l.delay)
	l.q[l.head] = laneItem{at: at, seq: seq}
	l.head = (l.head + 1) % len(l.q)
}

// BenchmarkLaneHold is the hold model with half the load on a lane: n
// events pending, n/2 queued at random delays up to 50 ms and n/2 on a
// 25 ms lane, each firing replacing itself in kind. Per step it prices
// the merge of a lane head with the queue against the queue's own pop.
func BenchmarkLaneHold(b *testing.B) {
	for _, n := range []int{64, 4096} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			e := NewEngine()
			g := NewRNG(1)
			var hold Handler
			hold = func() { e.Schedule(Time(g.Intn(50_000_000)), hold) }
			l := &holdLane{e: e, delay: 25 * time.Millisecond}
			for i := 0; i < n/2; i++ {
				hold()
				at, seq := e.Stamp(l.delay)
				l.q = append(l.q, laneItem{at: at, seq: seq})
			}
			e.AddLane(l)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}

func BenchmarkJitter(b *testing.B) {
	g := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = g.Jitter(30 * time.Second)
	}
}

func BenchmarkUniformDuration(b *testing.B) {
	g := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = g.UniformDuration(time.Millisecond, 30*time.Millisecond)
	}
}

// BenchmarkNewRNG is the cost of one fresh stream that fills its state:
// dominated by seeding the 607-entry source vector.
func BenchmarkNewRNG(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := NewRNG(int64(i))
		for k := 0; k <= lazyMax; k++ {
			g.Int63()
		}
	}
}

// BenchmarkSplit is the cost of a derived stream as a trial derives it:
// a parent drawn from once, and a child that fills.
func BenchmarkSplit(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := NewRNG(int64(i)).Split("topology")
		for k := 0; k <= lazyMax; k++ {
			g.Int63()
		}
	}
}

// BenchmarkReseed is the same seeding and fill with no allocation.
func BenchmarkReseed(b *testing.B) {
	g := NewRNG(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Reseed(int64(i))
		for k := 0; k <= lazyMax; k++ {
			g.Int63()
		}
	}
}

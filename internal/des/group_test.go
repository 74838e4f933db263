package des

import (
	"math"
	"sort"
	"testing"
	"time"
)

// These tests pin the Group's obligations with a toy sharded model that
// follows the same protocol the BGP layer uses: same-shard work is
// scheduled directly on the shard engine, cross-shard work is buffered
// with a sequence number reserved at send time and handed over at
// barriers through the drain hook. The model respects the lookahead
// contract (every inter-node delay >= the group lookahead), so any
// partition of its nodes is a valid sharding.
//
//   - Sequenced mode must reproduce the single-engine dispatch order
//     byte-for-byte, for any shard count, on both queue flavours.
//   - Concurrent mode must be deterministic run-to-run and agree with
//     the serial run on every order-insensitive observable.
//   - Cancellation must be observed inside shard epochs, not only at
//     barriers.

const toyLook = 25 * time.Millisecond

// toyFire is one node "processing" step: it logs the firing, then (for
// the node's first toyFanFires firings) schedules messages to other
// nodes with delays drawn from the node's private RNG. Delays are
// independent of the partition, so serial and sharded runs build the
// same schedule.
const (
	toyNodes    = 30
	toyFanFires = 20
	toyFanOut   = 2
)

type toyMsg struct {
	dst    int
	at     Time
	sendAt Time
	src    int    // source shard
	seq    uint64 // sequenced: reserved global seq; concurrent: per-source counter
}

type toyNode struct {
	id    int
	shard int
	sim   *toySim
	rng   *RNG
	fires int
	sumAt Time // order-insensitive observable: sum of firing times
}

type toySim struct {
	eng    *Engine // serial mode
	g      *Group  // sharded mode
	nodes  []*toyNode
	out    [][]toyMsg // per-source-shard cross-shard buffers
	outSeq []uint64   // concurrent mode: per-source-shard send counters
	logs   [][]int32  // dispatch log; per shard in concurrent mode, logs[0] otherwise
}

func newToySim(k int, sequenced bool) *toySim {
	s := &toySim{}
	nlogs := 1
	if k == 0 {
		s.eng = NewEngine()
	} else {
		s.g = NewGroup(k, toyLook, sequenced)
		s.out = make([][]toyMsg, k)
		s.outSeq = make([]uint64, k)
		s.g.SetDrain(s.drain)
		if !sequenced {
			nlogs = k
		}
	}
	s.logs = make([][]int32, nlogs)
	s.nodes = make([]*toyNode, toyNodes)
	for i := range s.nodes {
		shard := 0
		if k > 0 {
			shard = i % k
		}
		s.nodes[i] = &toyNode{id: i, shard: shard, sim: s, rng: NewRNG(int64(i)*7 + 1)}
	}
	return s
}

func (n *toyNode) Run() {
	s := n.sim
	var now Time
	switch {
	case s.g == nil:
		now = s.eng.Now()
	case s.g.Sequenced():
		now = s.g.Now()
	default:
		now = s.g.Shard(n.shard).Now()
	}
	li := 0
	if s.g != nil && !s.g.Sequenced() {
		li = n.shard
	}
	s.logs[li] = append(s.logs[li], int32(n.id))
	n.fires++
	n.sumAt += now
	if n.fires > toyFanFires {
		return
	}
	for j := 0; j < toyFanOut; j++ {
		dst := n.rng.Intn(len(s.nodes))
		// Quantized to whole milliseconds so distinct sends tie at one
		// instant and the seq tie-break carries the order. Always >= the
		// lookahead: the contract that makes every partition valid.
		delay := toyLook + Time(n.rng.Intn(40))*time.Millisecond
		s.send(n, dst, now+delay, now)
	}
}

func (s *toySim) send(from *toyNode, dst int, at, sendAt Time) {
	d := s.nodes[dst]
	if s.g == nil {
		s.eng.ScheduleRunnerAt(at, d)
		return
	}
	if d.shard == from.shard {
		s.g.Shard(d.shard).ScheduleRunnerAt(at, d)
		return
	}
	m := toyMsg{dst: dst, at: at, sendAt: sendAt, src: from.shard}
	if s.g.Sequenced() {
		m.seq = s.g.ReserveSeq()
	} else {
		s.outSeq[from.shard]++
		m.seq = s.outSeq[from.shard]
	}
	s.out[from.shard] = append(s.out[from.shard], m)
}

// drain moves buffered cross-shard messages into their destination
// engines at a barrier. Sequenced mode posts them under their reserved
// sequence numbers (order within the buffers is irrelevant: the key
// places them). Concurrent mode sorts by (arrival, send time, source
// shard, source counter) — a total order independent of goroutine
// timing — then schedules in that order so destination sequence numbers
// are assigned deterministically.
func (s *toySim) drain() {
	if s.g.Sequenced() {
		for si := range s.out {
			for _, m := range s.out[si] {
				s.g.PostForeign(s.nodes[m.dst].shard, m.at, m.seq, s.nodes[m.dst])
			}
			s.out[si] = s.out[si][:0]
		}
		return
	}
	var all []toyMsg
	for si := range s.out {
		all = append(all, s.out[si]...)
		s.out[si] = s.out[si][:0]
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.sendAt != b.sendAt {
			return a.sendAt < b.sendAt
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.seq < b.seq
	})
	for _, m := range all {
		s.g.Shard(s.nodes[m.dst].shard).ScheduleRunnerAt(m.at, s.nodes[m.dst])
	}
}

func (s *toySim) start() {
	for _, n := range s.nodes {
		// Staggered seeds, scheduled in node order like the BGP
		// originations; same (time, seq) keys in every mode.
		at := Time(n.id) * time.Millisecond
		if s.g == nil {
			s.eng.ScheduleRunnerAt(at, n)
		} else {
			s.g.Shard(n.shard).ScheduleRunnerAt(at, n)
		}
	}
}

func (s *toySim) run(t *testing.T) {
	t.Helper()
	var err error
	if s.g == nil {
		err = s.eng.Run()
	} else {
		err = s.g.Run()
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestGroupSequencedMatchesSerial pins the tentpole guarantee: the
// sequenced sharded schedule dispatches in exactly the single-engine
// order for every shard count.
func TestGroupSequencedMatchesSerial(t *testing.T) {
	ref := newToySim(0, false)
	ref.start()
	ref.run(t)
	want := ref.logs[0]
	if len(want) < toyNodes*toyFanFires/2 {
		t.Fatalf("reference run fired only %d events", len(want))
	}

	for _, k := range []int{1, 2, 3, 4, 7} {
		s := newToySim(k, true)
		s.start()
		s.run(t)
		diffLogs(t, "sequenced", want, s.logs[0])
		if s.g.Now() != ref.eng.Now() {
			t.Fatalf("k=%d: final clock %v, serial %v", k, s.g.Now(), ref.eng.Now())
		}
	}
}

func diffLogs(t *testing.T, name string, want, got []int32) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: fired %d events, serial fired %d", name, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: dispatch order diverges at %d: got node %d, serial node %d",
				name, i, got[i], want[i])
		}
	}
}

// TestGroupSequencedRunUntil pins deadline semantics against the serial
// engine: same events fired, same final clock, and the remainder runs
// to the same completion.
func TestGroupSequencedRunUntil(t *testing.T) {
	ref := newToySim(0, false)
	ref.start()
	s := newToySim(3, true)
	s.start()

	cut := 200 * time.Millisecond
	if err := ref.eng.RunUntil(cut); err != nil {
		t.Fatal(err)
	}
	if err := s.g.RunUntil(cut); err != nil {
		t.Fatal(err)
	}
	diffLogs(t, "until", ref.logs[0], s.logs[0])
	if s.g.Now() != ref.eng.Now() {
		t.Fatalf("clock after RunUntil: %v, serial %v", s.g.Now(), ref.eng.Now())
	}
	ref.run(t)
	s.run(t)
	diffLogs(t, "resume", ref.logs[0], s.logs[0])
}

// TestGroupConcurrentDeterministic pins the concurrent mode's
// determinism class: two runs with the same (seed, K, partition) must
// produce identical per-shard dispatch logs, and every
// order-insensitive observable (per-node fire count, sum of firing
// times) must agree with the serial run — the model satisfies the
// sharding contract, so only the interleaving may differ.
func TestGroupConcurrentDeterministic(t *testing.T) {
	ref := newToySim(0, false)
	ref.start()
	ref.run(t)

	run := func() *toySim {
		s := newToySim(4, false)
		s.start()
		s.run(t)
		return s
	}
	a, b := run(), run()
	for i := range a.logs {
		diffLogs(t, "run-to-run", a.logs[i], b.logs[i])
	}
	total := 0
	for _, l := range a.logs {
		total += len(l)
	}
	if total != len(ref.logs[0]) {
		t.Fatalf("concurrent fired %d events, serial %d", total, len(ref.logs[0]))
	}
	for i, n := range a.nodes {
		r := ref.nodes[i]
		if n.fires != r.fires || n.sumAt != r.sumAt {
			t.Fatalf("node %d: fires=%d sumAt=%v, serial fires=%d sumAt=%v",
				i, n.fires, n.sumAt, r.fires, r.sumAt)
		}
	}
}

// TestGroupCancelPerShard is the SetCancel regression: the probe must
// fire inside a shard's epoch slice — per shard, between events on the
// simulated clock — so a long-running multi-shard simulation stops
// promptly, not only at the next barrier or at quiescence. The chain of
// self-rescheduling events lives on one shard and stays within a single
// lookahead window, so a barrier-only probe would never see the flag
// until the chain (far beyond the probe stride) completed.
func TestGroupCancelPerShard(t *testing.T) {
	for _, sequenced := range []bool{true, false} {
		g := NewGroup(3, toyLook, sequenced)
		var calls, fired int
		g.SetCancel(func() bool {
			calls++
			return calls > 2
		})
		const chain = 10 * cancelStride
		var step func()
		step = func() {
			fired++
			if fired < chain {
				// Nanosecond steps: the whole chain fits inside one epoch.
				g.Shard(1).Schedule(1, step)
			}
		}
		g.Shard(1).Schedule(0, step)
		err := g.Run()
		if err != ErrCanceled {
			t.Fatalf("sequenced=%v: Run returned %v, want ErrCanceled", sequenced, err)
		}
		if fired >= chain {
			t.Fatalf("sequenced=%v: all %d events ran before cancellation", sequenced, fired)
		}
		if fired > 4*cancelStride {
			t.Fatalf("sequenced=%v: %d events ran past a probe reporting cancel", sequenced, fired)
		}
	}
}

// TestGroupControlInterleaving pins that control events run exactly at
// their timestamps relative to shard work in both modes: a control
// event at time T observes every shard clock synchronized to T and all
// shard events before T completed.
func TestGroupControlInterleaving(t *testing.T) {
	for _, sequenced := range []bool{true, false} {
		g := NewGroup(2, toyLook, sequenced)
		// Per the sharding contract, shard handlers touch only
		// shard-local state; control handlers (all shards paused) may
		// read across shards.
		var fired [2]int
		for i := 0; i < 100; i++ {
			sh := i % 2
			g.Shard(sh).ScheduleAt(Time(i)*10*time.Millisecond, func() { fired[sh]++ })
		}
		checked := false
		g.Control().ScheduleAt(495*time.Millisecond, func() {
			checked = true
			if n := fired[0] + fired[1]; n != 50 {
				t.Errorf("sequenced=%v: control at 495ms saw %d shard events, want 50", sequenced, n)
			}
			if sequenced {
				// Sequenced handlers read the group clock, which the
				// driver keeps current; individual shard clocks lag.
				if now := g.Now(); now != 495*time.Millisecond {
					t.Errorf("group clock %v at control time 495ms", now)
				}
				return
			}
			// Concurrent handlers read their shard engine's clock, so
			// the driver synchronizes every shard to the control time.
			for i := 0; i < 2; i++ {
				if now := g.Shard(i).Now(); now != 495*time.Millisecond {
					t.Errorf("shard %d clock %v at control time 495ms", i, now)
				}
			}
		})
		if err := g.Run(); err != nil {
			t.Fatal(err)
		}
		if n := fired[0] + fired[1]; !checked || n != 100 {
			t.Fatalf("sequenced=%v: checked=%v fired=%d", sequenced, checked, n)
		}
	}
}

// TestGroupReset pins that a reset group reproduces its first run
// byte-for-byte, including the shared sequence counter restart.
func TestGroupReset(t *testing.T) {
	s := newToySim(3, true)
	s.start()
	s.run(t)
	first := append([]int32(nil), s.logs[0]...)

	s.g.Reset()
	s.g.SetDrain(s.drain)
	s.logs[0] = s.logs[0][:0]
	for _, n := range s.nodes {
		n.fires, n.sumAt = 0, 0
		n.rng = NewRNG(int64(n.id)*7 + 1)
	}
	s.start()
	s.run(t)
	diffLogs(t, "reset", first, s.logs[0])
}

// TestEngineRunBefore pins the strict-exclusive deadline and the clock
// advance that RunBefore adds over RunUntil.
func TestEngineRunBefore(t *testing.T) {
	e := NewEngine()
	var log []int
	e.ScheduleAt(10*time.Millisecond, tag(&log, 1))
	e.ScheduleAt(20*time.Millisecond, tag(&log, 2))
	if err := e.RunBefore(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(log) != 1 || log[0] != 1 {
		t.Fatalf("RunBefore fired %v, want [1]", log)
	}
	if e.Now() != 20*time.Millisecond {
		t.Fatalf("clock %v after RunBefore(20ms)", e.Now())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(log) != 2 || log[1] != 2 {
		t.Fatalf("resumed run fired %v, want [1 2]", log)
	}
}

// TestEngineNextKey pins key reporting and canceled-head draining.
func TestEngineNextKey(t *testing.T) {
	e := NewEngine()
	if _, _, ok := e.NextKey(); ok {
		t.Fatal("NextKey on empty engine reported an event")
	}
	a := e.ScheduleAt(5*time.Millisecond, func() {})
	e.ScheduleAt(7*time.Millisecond, func() {})
	e.Cancel(a)
	at, seq, ok := e.NextKey()
	if !ok || at != 7*time.Millisecond || seq != 2 {
		t.Fatalf("NextKey = (%v, %d, %v), want (7ms, 2, true)", at, seq, ok)
	}
	if e.Pending() != 1 {
		t.Fatalf("canceled head not drained: %d pending", e.Pending())
	}
}

// TestGroupRunUntilMax pins that an unbounded Run leaves the clock at
// the last event rather than the sentinel deadline.
func TestGroupRunUntilMax(t *testing.T) {
	g := NewGroup(2, toyLook, true)
	g.Shard(0).ScheduleAt(time.Second, func() {})
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if g.Now() != time.Second {
		t.Fatalf("clock %v after Run, want 1s", g.Now())
	}
	if g.Now() >= Time(math.MaxInt64) {
		t.Fatal("clock advanced to the sentinel deadline")
	}
}

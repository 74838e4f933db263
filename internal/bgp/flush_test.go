package bgp

import (
	"slices"
	"testing"
	"time"

	"bgpsim/internal/des"
	"bgpsim/internal/trace"
)

// sendLog is a trace.Tracer keeping the updates sent to one peer node.
type sendLog struct {
	to    NodeID
	sends []sent
}

// sent is one update as the flush station's table test names it.
type sent struct {
	dest     ASN
	withdraw bool
}

// Trace keeps e when it is an update sent to l.to.
func (l *sendLog) Trace(e trace.Event) {
	if e.Kind == trace.KindSend && e.Peer == l.to {
		l.sends = append(l.sends, sent{e.Dest, e.Withdrawal})
	}
}

// members lists the elements of b in ascending order; nil for an empty
// or unallocated set.
func members(b bitset) []ASN {
	return b.appendIndices(nil)
}

// TestFlushStation drives tryFlush directly on router 1 of the line
// 0-1-2, flushing to node 2 (slot 1) at time 0 with hand-set flush
// columns and Loc-RIB, and pins what it sends, which pending and blocked
// bits it leaves, the gate it leaves, and when it arms the deferred
// flush. Every row runs with blocked-skip on and under refNoBlockedSkip:
// both must send the same updates and leave the same pending bits and
// gates, and only blocked-skip ever sets a blocked bit. examined is what
// the last pass looked at, which is where the two differ.
func TestFlushStation(t *testing.T) {
	const m = time.Second // MRAI; no jitter
	const slot = 1        // router 1's slot of node 2
	type want struct {
		sends    []sent
		pending  []ASN
		blocked  []ASN // under blocked-skip; always none under the reference
		flushAt  des.Time
		nextSend des.Time
		examined []ASN // under blocked-skip (nil: as under the reference)
		refExam  []ASN // under the reference path
	}
	noFlush := des.Time(-1)
	rows := []struct {
		name   string
		params func(*Params)
		setup  func(r *router)
		run    func(t *testing.T, sim *Simulator, r *router)
		want   want
	}{
		{
			name: "nothing to send clears the pending bit",
			setup: func(r *router) {
				r.setLocForTest(7, Path{0, 7}, 0)
				r.flush.advertised[slot].set(7, r.tab.intern(Path{1, 0, 7}), &r.sim.spare)
				r.flush.pending[slot].set(7)
				r.flush.pending[slot].set(8) // no route, nothing advertised
			},
			want: want{flushAt: noFlush, refExam: []ASN{7, 8}},
		},
		{
			// The sender's half of "no update carries its receiver's AS".
			name: "a path through the peer's AS is not sent",
			setup: func(r *router) {
				r.setLocForTest(7, Path{0, 2, 7}, 0)
				r.flush.pending[slot].set(7)
			},
			want: want{flushAt: noFlush, refExam: []ASN{7}},
		},
		{
			name: "a path through the peer's AS is withdrawn",
			setup: func(r *router) {
				r.setLocForTest(7, Path{0, 2, 7}, 0)
				r.flush.advertised[slot].set(7, r.tab.intern(Path{1, 0, 7}), &r.sim.spare)
				r.flush.pending[slot].set(7)
			},
			want: want{sends: []sent{{7, true}}, flushAt: noFlush, refExam: []ASN{7}},
		},
		{
			name: "a withdrawal bypasses the gate",
			setup: func(r *router) {
				r.flush.timers[slot].nextSend = m
				r.flush.advertised[slot].set(7, r.tab.intern(Path{1, 0, 7}), &r.sim.spare)
				r.flush.pending[slot].set(7)
			},
			want: want{sends: []sent{{7, true}}, flushAt: noFlush, nextSend: m, refExam: []ASN{7}},
		},
		{
			name:   "a rate-limited withdrawal is blocked and armed at the gate",
			params: func(p *Params) { p.RateLimitWithdrawals = true },
			setup: func(r *router) {
				r.flush.timers[slot].nextSend = m
				r.flush.advertised[slot].set(7, r.tab.intern(Path{1, 0, 7}), &r.sim.spare)
				r.flush.pending[slot].set(7)
			},
			want: want{pending: []ASN{7}, blocked: []ASN{7}, flushAt: m, nextSend: m, refExam: []ASN{7}},
		},
		{
			name:   "an announcement through the open gate rearms it",
			params: func(p *Params) { p.FlapGate = 3 },
			setup: func(r *router) {
				r.setLocForTest(7, Path{0, 7}, 0)
				r.flush.pending[slot].set(7)
				r.decide.flapCount[7] = 3
			},
			want: want{sends: []sent{{7, false}}, flushAt: noFlush, nextSend: m, refExam: []ASN{7}},
		},
		{
			name:   "a flap-gate bypass sends without rearming the gate",
			params: func(p *Params) { p.FlapGate = 3 },
			setup: func(r *router) {
				r.setLocForTest(7, Path{0, 7}, 0)
				r.flush.pending[slot].set(7)
				r.decide.flapCount[7] = 2
			},
			want: want{sends: []sent{{7, false}}, flushAt: noFlush, refExam: []ASN{7}},
		},
		{
			name:   "per-destination gates arm at the minimum blocked gate",
			params: func(p *Params) { p.PerDestinationMRAI = true },
			setup: func(r *router) {
				for _, dest := range []ASN{7, 8, 9} {
					r.setLocForTest(dest, Path{0, dest}, 0)
					r.flush.pending[slot].set(dest)
				}
				r.flush.destGate[slot][7] = 3 * m
				r.flush.destGate[slot][8] = 2 * m
			},
			want: want{
				sends: []sent{{9, false}}, pending: []ASN{7, 8}, blocked: []ASN{7, 8},
				flushAt: 2 * m, refExam: []ASN{7, 8, 9},
			},
		},
		{
			name: "a blocked destination is skipped until markPendingAll clears its bit",
			setup: func(r *router) {
				r.flush.timers[slot].nextSend = m
				for _, dest := range []ASN{7, 8} {
					r.setLocForTest(dest, Path{0, dest}, 0)
					r.flush.advertised[slot].set(dest, r.tab.intern(Path{1, 0, 5, dest}), &r.sim.spare)
					r.flush.pending[slot].set(dest)
				}
			},
			run: func(_ *testing.T, _ *Simulator, r *router) {
				r.tryFlush(slot) // both announcements blocked
				r.tryFlush(slot) // nothing new to look at
				r.decide.loc.del(8)
				r.decide.bestSlot[8] = bestNone
				r.markPendingAll(8) // 8 is now a withdrawal, which bypasses the gate
				r.tryFlush(slot)
			},
			want: want{
				sends: []sent{{8, true}}, pending: []ASN{7}, blocked: []ASN{7},
				flushAt: m, nextSend: m, examined: []ASN{8}, refExam: []ASN{7, 8},
			},
		},
		{
			name: "a blocked destination is skipped until the gate opens",
			setup: func(r *router) {
				r.flush.timers[slot].nextSend = m
				r.setLocForTest(7, Path{0, 7}, 0)
				r.flush.pending[slot].set(7)
			},
			run: func(t *testing.T, sim *Simulator, r *router) {
				r.tryFlush(slot)
				if err := sim.RunUntil(m); err != nil { // the deferred flush fires
					t.Fatal(err)
				}
			},
			want: want{sends: []sent{{7, false}}, flushAt: noFlush, nextSend: 2 * m, refExam: []ASN{7}},
		},
	}
	for _, row := range rows {
		for _, skip := range []bool{true, false} {
			name := row.name
			if !skip {
				name += " (reference)"
			}
			t.Run(name, func(t *testing.T) {
				log := &sendLog{to: 2}
				p := strictParams(m)
				p.Tracer = log
				if !skip {
					p.ref |= refNoBlockedSkip
				}
				if row.params != nil {
					row.params(&p)
				}
				sim := mustSim(t, buildLine(t, 3), p)
				r := sim.routers[1]
				row.setup(r)
				if row.run != nil {
					row.run(t, sim, r)
				} else {
					r.tryFlush(slot)
				}
				w := row.want
				wantBlocked, wantExam := w.blocked, w.refExam
				if skip {
					if w.examined != nil {
						wantExam = w.examined
					}
				} else {
					wantBlocked = nil
				}
				if !slices.Equal(log.sends, w.sends) {
					t.Errorf("sent %v, want %v", log.sends, w.sends)
				}
				if got := members(r.flush.pending[slot]); !slices.Equal(got, w.pending) {
					t.Errorf("pending %v, want %v", got, w.pending)
				}
				if got := members(r.flush.blocked[slot]); !slices.Equal(got, wantBlocked) {
					t.Errorf("blocked %v, want %v", got, wantBlocked)
				}
				if got := r.sim.destsScratch; !slices.Equal(got, wantExam) {
					t.Errorf("last pass examined %v, want %v", got, wantExam)
				}
				flushAt := noFlush
				if ev := r.flush.timers[slot].ev; ev != nil {
					flushAt = ev.At()
				}
				if flushAt != w.flushAt {
					t.Errorf("deferred flush armed at %v, want %v", flushAt, w.flushAt)
				}
				if got := r.flush.timers[slot].nextSend; got != w.nextSend {
					t.Errorf("per-peer gate at %v, want %v", got, w.nextSend)
				}
			})
		}
	}
}

package bgp

import (
	"sort"
	"strconv"

	"bgpsim/internal/des"
	"bgpsim/internal/metrics"
	"bgpsim/internal/topology"
)

// shardRuntime is the Simulator's sharded execution state: the engine
// group, the node→shard assignment from the topology partitioner, the
// per-epoch cross-shard message buffers, and — in concurrent mode — the
// shard-local collectors, random streams, and path tables the sharding
// contract requires (DESIGN.md "Sharding and lookahead contract").
//
// Cross-shard deliveries never go straight onto the destination engine.
// The sender appends an xmsg to its own shard's buffer (race-free: one
// writer per buffer) and the group's drain hook moves the buffers into
// destination queues at each lookahead barrier:
//
//   - Sequenced mode reserves the message's global sequence number from
//     the shared counter at send time — the very draw the single-engine
//     run would have made — and the barrier insertion (PostForeign)
//     files it under that key, so the merged schedule is the serial
//     schedule. No sorting is needed; the (at, seq) key is the order.
//
//   - Concurrent mode stamps a per-source-shard counter instead, and
//     drain sorts all buffered messages by (arrival, send time, source
//     shard, counter) — a total order that does not depend on goroutine
//     timing — before scheduling them, so destination-side sequence
//     numbers are assigned deterministically. An announcement's ref
//     names a path in the sender's shard-local table; drain renames it
//     into the receiver's.
type shardRuntime struct {
	g      *des.Group
	net    *topology.Network // the network assign partitions
	assign []int             // node id -> shard

	// Concurrent-mode shard-local state; nil slices in sequenced mode,
	// where every router aliases the Simulator's own col/rng/tab.
	cols []*metrics.Collector
	rngs []*des.RNG
	tabs []*pathTab

	out    [][]xmsg // cross-shard buffers, indexed by source shard
	outSeq []uint64 // concurrent mode: per-source-shard send counters
	pools  []deliveryPool
	all    []xmsg // drain scratch for the concurrent-mode sort
}

// xmsg is one buffered cross-shard update delivery.
type xmsg struct {
	from, to *router
	at       des.Time // arrival time (send + link delay)
	sendAt   des.Time // send time, part of the concurrent sort key
	src      int      // source shard, part of the concurrent sort key
	seq      uint64   // reserved global seq (sequenced) / source counter
	u        Update
}

// newShardRuntime builds the sharded execution state for k shards. It
// holds nothing of a network: setupShards gives it the network and the
// node→shard assignment of each run, and reset sizes the rest.
func newShardRuntime(k int, look des.Time, sequenced bool) *shardRuntime {
	sh := &shardRuntime{
		g:      des.NewGroup(k, look, sequenced),
		out:    make([][]xmsg, k),
		outSeq: make([]uint64, k),
		pools:  make([]deliveryPool, k),
	}
	if !sequenced {
		sh.cols = make([]*metrics.Collector, k)
		sh.tabs = make([]*pathTab, k)
		sh.rngs = make([]*des.RNG, k)
		for i := 0; i < k; i++ {
			sh.cols[i] = metrics.NewCollector(0)
			sh.tabs[i] = &pathTab{}
			sh.rngs[i] = des.NewRNG(0)
		}
	}
	return sh
}

// reset rewinds the runtime for a new trial on sh.net: engines, buffers,
// and (in concurrent mode) the shard-local collectors and path tables.
// The shard random streams are re-split from the trial's master RNG,
// which must be freshly seeded.
func (sh *shardRuntime) reset(master *des.RNG) {
	sh.g.Reset()
	sh.g.SetDrain(sh.drain)
	for i := range sh.out {
		sh.out[i] = sh.out[i][:0]
		sh.outSeq[i] = 0
		sh.pools[i].reset()
	}
	for i := range sh.cols {
		sh.cols[i].Resize(sh.net.NumNodes())
		sh.tabs[i].reset()
	}
	sh.reseed(master)
}

// reseed rewinds the concurrent-mode shard random streams in place from
// a freshly reseeded master, to exactly the streams master.Split would
// derive. In-place matters: every router caches a pointer to its
// shard's stream (bindContext), so the streams must be rewound, not
// replaced. No-op in sequenced mode, where rngs is nil and every router
// shares the master stream.
func (sh *shardRuntime) reseed(master *des.RNG) {
	for i := range sh.rngs {
		sh.rngs[i].Reseed(master.SplitSeed("shard" + strconv.Itoa(i)))
	}
}

// lookahead returns the conservative lookahead for the partition: the
// minimum link delay over cut links — the soonest any cross-shard
// message can arrive after being sent. A partition with no cut links
// gets the external link delay as a plain epoch granularity. Returns 0
// (meaning "sharding unavailable") when some cut link has a
// non-positive delay.
func shardLookahead(net *topology.Network, assign []int, p Params) des.Time {
	look := des.Time(0)
	for _, l := range net.Links() {
		if assign[l.A] == assign[l.B] {
			continue
		}
		d := p.ExtDelay
		if l.Internal {
			d = p.IntDelay
		}
		if d <= 0 {
			return 0
		}
		if look == 0 || d < look {
			look = d
		}
	}
	if look == 0 {
		look = p.ExtDelay
	}
	return look
}

// post buffers one cross-shard delivery. Called from the sending
// router's execution context: the sequenced driver, a concurrent shard
// goroutine (writing only its own shard's buffer), or a control handler
// at a barrier.
func (sh *shardRuntime) post(from, to *router, at des.Time, u Update) {
	m := xmsg{from: from, to: to, at: at, sendAt: from.now(), src: from.shard, u: u}
	if sh.g.Sequenced() {
		m.seq = sh.g.ReserveSeq()
	} else {
		sh.outSeq[from.shard]++
		m.seq = sh.outSeq[from.shard]
	}
	sh.out[from.shard] = append(sh.out[from.shard], m)
}

// forEachRef passes fn the ref of every update the runtime holds — the
// shards' in-flight deliveries and the messages buffered for the next
// barrier — and returns how many there are (Simulator.forEachInFlight).
func (sh *shardRuntime) forEachRef(fn func(*routeRef)) (n int) {
	for i := range sh.pools {
		n += sh.pools[i].forEachRef(fn)
		for j := range sh.out[i] {
			fn(&sh.out[i][j].u.Ref)
		}
		n += len(sh.out[i])
	}
	return n
}

// drain is the group's barrier hook: it files every buffered message
// into its destination shard's queue. All engines are paused here, so
// touching any shard's engine, delivery pool and path table is
// race-free.
func (sh *shardRuntime) drain() {
	if sh.g.Sequenced() {
		for si := range sh.out {
			for _, m := range sh.out[si] {
				d := sh.pools[m.to.shard].take()
				d.from, d.to, d.u = m.from, m.to, m.u
				sh.g.PostForeign(m.to.shard, m.at, m.seq, d)
			}
			sh.out[si] = sh.out[si][:0]
		}
		return
	}
	all := sh.all[:0]
	for si := range sh.out {
		all = append(all, sh.out[si]...)
		sh.out[si] = sh.out[si][:0]
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
	for i := range all {
		m := &all[i]
		d := sh.pools[m.to.shard].take()
		d.from, d.to, d.u = m.from, m.to, m.u
		// Hash-consed, so the receiver's table grows per distinct path,
		// not per message.
		d.u.Ref = m.to.tab.translate(m.from.tab, m.u.Ref)
		sh.g.Shard(m.to.shard).ScheduleRunnerAt(m.at, d)
	}
	sh.all = all
}

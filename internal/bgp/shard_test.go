package bgp

import (
	"fmt"
	"strings"
	"testing"

	"bgpsim/internal/des"
	"bgpsim/internal/mrai"
	"bgpsim/internal/topology"
)

// These tests pin the sharded-execution contract from ARCHITECTURE.md
// ("Sharded engine"): sequenced sharding is byte-identical to the
// single-engine path for every scheme variant and every shard count,
// and concurrent sharding is deterministic per (seed, shard count).

func shardTestNet(t *testing.T) (*topology.Network, []int) {
	t.Helper()
	rng := des.NewRNG(11)
	nw, err := topology.SkewedNetwork(topology.Skewed7030(40), rng)
	if err != nil {
		t.Fatal(err)
	}
	return nw, topology.NearestNodes(nw, topology.GridCenter(nw), 4, nil)
}

// TestShardedSequencedMatchesSingle runs every scheme variant through
// the single engine and through sequenced sharding at several shard
// counts, requiring identical digests (convergence delay, every
// counter, every final route). One reused simulator Resets across all
// sharded configurations — including shard-count changes and the
// K=1 single-engine fallback — so mode transitions are covered too.
func TestShardedSequencedMatchesSingle(t *testing.T) {
	nw, fail := shardTestNet(t)
	reused, err := New(nw, equivalenceParams(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range resetVariants() {
		p := equivalenceParams(2, v.mutate)
		single, err := New(nw, p)
		if err != nil {
			t.Fatalf("%s: New: %v", v.name, err)
		}
		want := digestRun(t, single, nw, fail)
		for _, k := range []int{1, 2, 4} {
			ps := p
			ps.Shards = k
			if err := reused.Reset(ps); err != nil {
				t.Fatalf("%s k=%d: Reset: %v", v.name, k, err)
			}
			if k >= 2 && reused.sh == nil {
				t.Fatalf("%s k=%d: sharding silently disabled", v.name, k)
			}
			if k < 2 && reused.sh != nil {
				t.Fatalf("%s k=%d: expected single-engine path", v.name, k)
			}
			got := digestRun(t, reused, nw, fail)
			if got.summary != want.summary {
				t.Errorf("%s k=%d: sharded run diverged from single engine\nsingle:\n%s\nsharded:\n%s",
					v.name, k, want.summary, got.summary)
			}
		}
	}
}

// TestShardedConcurrentDeterministic pins the concurrent mode's
// determinism class: two runs with the same (seed, shard count) must
// produce byte-identical digests for every scheme variant, even though
// the schedule differs from the serial one.
func TestShardedConcurrentDeterministic(t *testing.T) {
	nw, fail := shardTestNet(t)
	for _, v := range resetVariants() {
		p := equivalenceParams(3, v.mutate)
		p.Shards = 4
		p.ShardConcurrent = true
		a, err := New(nw, p)
		if err != nil {
			t.Fatalf("%s: New: %v", v.name, err)
		}
		if a.sh == nil || a.sh.g.Sequenced() {
			t.Fatalf("%s: expected concurrent sharded mode", v.name)
		}
		da := digestRun(t, a, nw, fail)
		b, err := New(nw, p)
		if err != nil {
			t.Fatalf("%s: New: %v", v.name, err)
		}
		db := digestRun(t, b, nw, fail)
		if da.summary != db.summary {
			t.Errorf("%s: two concurrent runs with one seed diverged\nfirst:\n%s\nsecond:\n%s",
				v.name, da.summary, db.summary)
		}
	}
}

// TestShardedConcurrentRoutesMatchSerial checks that the concurrent
// mode converges to the same final routing tables as the serial engine
// for the policy-free default scheme: without damping the stable state
// is a fixed point of the (deterministic) decision process over final
// advertisements, independent of message timing. Counters and delays
// legitimately differ; only the route lines are compared.
func TestShardedConcurrentRoutesMatchSerial(t *testing.T) {
	nw, fail := shardTestNet(t)
	p := equivalenceParams(4, nil)
	serial, err := New(nw, p)
	if err != nil {
		t.Fatal(err)
	}
	want := routeLines(digestRun(t, serial, nw, fail).summary)
	pc := p
	pc.Shards = 4
	pc.ShardConcurrent = true
	conc, err := New(nw, pc)
	if err != nil {
		t.Fatal(err)
	}
	got := routeLines(digestRun(t, conc, nw, fail).summary)
	if got != want {
		t.Errorf("concurrent final routes diverged from serial\nserial:\n%s\nconcurrent:\n%s", want, got)
	}
}

// routeLines strips the counter header from a digest summary, leaving
// only the per-router final-route lines.
func routeLines(summary string) string {
	_, rest, _ := strings.Cut(summary, "\n")
	return rest
}

// TestShardedFallbacks pins the silent-fallback edges: shard counts are
// clamped to the router count, and a topology with no positive
// lookahead (zero link delays) runs on the single engine.
func TestShardedFallbacks(t *testing.T) {
	nw, fail := shardTestNet(t)

	p := equivalenceParams(5, nil)
	p.Shards = 1000 // far more shards than routers: clamp, still sharded
	sim, err := New(nw, p)
	if err != nil {
		t.Fatal(err)
	}
	if sim.sh == nil {
		t.Fatal("clamped shard count should still shard")
	}
	if got := sim.sh.g.NumShards(); got != nw.NumNodes() {
		t.Fatalf("shard count %d, want clamp to %d routers", got, nw.NumNodes())
	}
	single, err := New(nw, equivalenceParams(5, nil))
	if err != nil {
		t.Fatal(err)
	}
	want := digestRun(t, single, nw, fail)
	if got := digestRun(t, sim, nw, fail); got.summary != want.summary {
		t.Errorf("clamped sharded run diverged from single engine")
	}

	pz := equivalenceParams(5, nil)
	pz.Shards = 4
	pz.ExtDelay, pz.IntDelay = 0, 0 // no positive lookahead anywhere
	zero, err := New(nw, pz)
	if err != nil {
		t.Fatal(err)
	}
	if zero.sh != nil {
		t.Fatal("zero link delays must fall back to the single engine")
	}
}

// TestShardedConcurrentInternsPerPath pins that a ref crossing shards is
// renamed through the receiving table's hash-consing intern: no shard
// table registers a path twice, so each holds at most the distinct paths
// (and their suffixes) its routers ever saw and two tables together stay
// within twice the serial run's one. Registering per cross-shard message
// instead grows the tables with the message count.
func TestShardedConcurrentInternsPerPath(t *testing.T) {
	nw, fail := shardTestNet(t)
	p := equivalenceParams(6, nil)
	serial, err := New(nw, p)
	if err != nil {
		t.Fatal(err)
	}
	digestRun(t, serial, nw, fail)
	want := serial.PathTableStats().Registered

	p.Shards = 2
	p.ShardConcurrent = true
	conc, err := New(nw, p)
	if err != nil {
		t.Fatal(err)
	}
	if conc.sh == nil || conc.sh.g.Sequenced() {
		t.Fatal("expected concurrent sharded mode")
	}
	digestRun(t, conc, nw, fail)
	for si, tab := range conc.sh.tabs {
		seen := make(map[string]routeRef, tab.size())
		for ref := emptyRef; int(ref) <= tab.size(); ref++ {
			key := fmt.Sprint(tab.path(ref))
			if first, dup := seen[key]; dup {
				t.Fatalf("shard %d registered path %s twice, as refs %d and %d", si, key, first, ref)
			}
			seen[key] = ref
		}
	}
	const k = 2 // one table per shard
	if got := conc.PathTableStats().Registered; got > k*want {
		t.Errorf("2 concurrent shards registered %d paths, serial %d: want at most %dx", got, want, k)
	}
}

// TestShardedDeliveryPoolsKeepTheirOwner pins the ownership rule the
// chunked delivery pools inherit: after a concurrent batch+dynamic run
// every delivery a shard's pool carved is back on that pool's free chain
// and still bound to it, so no carrier migrated to another shard's pool
// and none was lost in flight. Under -race the run itself checks that
// shard goroutines never touch another shard's pool, chunks or inbox
// slabs outside the barrier.
func TestShardedDeliveryPoolsKeepTheirOwner(t *testing.T) {
	nw, fail := shardTestNet(t)
	p := equivalenceParams(5, func(p *Params) {
		p.Queue = QueueBatched
		p.MRAI = mrai.PaperDynamic()
	})
	p.Shards = 4
	p.ShardConcurrent = true
	sim, err := New(nw, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.ConvergeAndFail(fail); err != nil {
		t.Fatal(err)
	}
	carved := 0
	for i := range sim.sh.pools {
		pool := &sim.sh.pools[i]
		free := 0
		for d := pool.free; d != nil; d = d.next {
			if d.pool != pool {
				t.Fatalf("pool %d holds a delivery bound to another pool", i)
			}
			free++
		}
		if issued := pool.made - len(pool.spare); free != issued {
			t.Errorf("pool %d: %d deliveries on the free chain, %d issued", i, free, issued)
		}
		carved += pool.made
	}
	if carved == 0 {
		t.Fatal("no shard pool carved a delivery: the run did not go through the sharded path")
	}
}

package bgpsim_test

import (
	"fmt"
	"os"
	"runtime"
	"testing"

	"bgpsim"
)

// TestLargeScaleMultiPrefix runs the full multi-prefix stress scenario —
// 500 ASes × 1000 prefixes, a 500,000-destination routing table —
// through initial convergence, the 10% failure, and re-convergence, and
// reports the process memory high-water mark. It is the digest pin for
// the scenario: the printed line is the observable to compare across
// versions.
//
// Memory expectations (measured; see "Multi-prefix RIBs" under "How we
// got here" in EXPERIMENTS.md): the dense RIB state itself is compact —
// interned 4-byte route refs, lazily materialized peer columns, shared
// path storage — but the path intern table grows with every distinct
// path the exploration storm visits and historically was only rewound
// at Reset, with the peak footprint scaling at roughly 115 MB per
// prefix unit at this topology size (~100 GB-class at k=1000). The
// path table is now collected during the run (bgp's Simulator.sweep:
// whenever it has doubled since the last sweep, or grown by one path per
// 16 RIB cells where cells dominate), so it holds about twice the live
// path set instead of everything both phases explored, and the
// exploration reuses the reclaimed memory. The tightened budget below
// asserts that reduction — it is an OOM tripwire at the post-sweep
// extrapolation, not a target. Expect several hours of wall clock; the
// ConvergeMultiPrefix benchmark entry tracks bytes/op of the reduced
// cut of the same shape in CI.
func TestLargeScaleMultiPrefix(t *testing.T) {
	if os.Getenv("BGPSIM_LARGE") == "" {
		t.Skip("set BGPSIM_LARGE=1 to run the 500-AS x 1000-prefix scenario (hours of wall clock, ~100 GB-class memory)")
	}
	sc := bgpsim.LargeScaleMultiPrefix()
	if sc.Topology.PrefixesPerOrigin != 1000 || sc.Topology.N != 500 {
		t.Fatalf("preset shape changed: %+v", sc.Topology)
	}
	res, err := bgpsim.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delay <= 0 || res.Messages == 0 || res.Nodes != 500 {
		t.Fatalf("implausible result: %+v", res)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	// Sys is the high-water mark of memory obtained from the OS — the
	// honest "what did this run cost" number (HeapAlloc after Run would
	// mostly count garbage awaiting collection).
	const budget = 100 << 30
	if ms.Sys > budget {
		t.Errorf("process footprint %d bytes exceeds the %d tripwire; the per-prefix slope or the path table collection regressed (see EXPERIMENTS.md \"How we got here\")",
			ms.Sys, uint64(budget))
	}
	fmt.Printf("large-scale digest: delay=%v msgs=%d ann=%d wd=%d proc=%d failed=%d/%d sys=%dMB\n",
		res.Delay, res.Messages, res.Announcements, res.Withdrawals, res.Processed,
		res.FailedNodes, res.Nodes, ms.Sys>>20)
}

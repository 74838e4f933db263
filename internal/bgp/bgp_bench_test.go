package bgp

import (
	"testing"
	"time"

	"bgpsim/internal/des"
	"bgpsim/internal/mrai"
	"bgpsim/internal/topology"
)

// BenchmarkConvergeAndFail runs one full simulation per iteration
// (installed start, 6-node geographic failure, re-convergence) on a
// fixed 60-node topology. The damped case is the only timing of the
// flap-damping path; benchmark/ covers the other three at paper scale.
func BenchmarkConvergeAndFail(b *testing.B) {
	nw, err := topology.SkewedNetwork(topology.Skewed7030(60), des.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	fail := topology.NearestNodes(nw, topology.GridCenter(nw), 6, nil)
	for _, c := range []struct {
		name   string
		mutate func(*Params)
	}{
		{"FIFO", nil},
		{"Batched", func(p *Params) { p.Queue = QueueBatched }},
		{"Dynamic", func(p *Params) { p.MRAI = mrai.PaperDynamic() }},
		{"Damped", func(p *Params) { p.Damping = DefaultDamping() }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := equivalenceParams(int64(i+1), c.mutate)
				p.ref = 0 // time the production paths, without the invariant check
				sim, err := New(nw, p)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sim.ConvergeAndFail(fail); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// decideBench measures the full decision-process scan at a given peer
// degree — the cost the incremental path avoids. Degrees 64/128 model
// the highest-degree nodes of the 500-AS Internet-like topologies.
func decideBench(b *testing.B, degree int) {
	peers := make([]Peer, degree)
	alive := make([]bool, degree)
	for i := range peers {
		peers[i] = Peer{Node: i, AS: 10 + i}
		alive[i] = true
	}
	rib := ribOver(peers, 100)
	for i := range peers {
		rib.set(99, i, Path{10 + i, 50, 99})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := decide(rib.adjRIBIn, 99, peers, alive, nil); !ok {
			b.Fatal("no route")
		}
	}
}

func BenchmarkDecisionProcess(b *testing.B)     { decideBench(b, 8) }
func BenchmarkDecideDegree16(b *testing.B)      { decideBench(b, 16) }
func BenchmarkDecideDegree64(b *testing.B)      { decideBench(b, 64) }
func BenchmarkDecideDegree128(b *testing.B)     { decideBench(b, 128) }
func BenchmarkRunDecisionDegree16(b *testing.B) { runDecisionBench(b, 16, false) }
func BenchmarkRunDecisionDegree64(b *testing.B) { runDecisionBench(b, 64, false) }
func BenchmarkRunDecisionDegree128(b *testing.B) {
	runDecisionBench(b, 128, false)
}

func BenchmarkRunDecisionDegree128FullScan(b *testing.B) {
	runDecisionBench(b, 128, true)
}

// runDecisionBench measures the per-batch decision work through the real
// router entry point (finishProcessing): a hub router with the given
// degree receives a batch touching degree/2 distinct destinations, one
// announcement each, none of which beats the incumbent (the origin
// spoke's direct route). The incremental path classifies each as a no-op
// in O(1); the full scan pays an O(degree) decide per touched
// destination, O(degree²) per batch — the shape a large failure's
// exploration traffic takes at high-degree nodes.
func runDecisionBench(b *testing.B, degree int, fullScan bool) {
	nw := starNetwork(b, degree)
	p := DefaultParams()
	if fullScan {
		p.ref = refFullScan
	}
	sim, err := New(nw, p)
	if err != nil {
		b.Fatal(err)
	}
	sim.Start()
	if err := sim.Run(); err != nil {
		b.Fatal(err)
	}
	const hub = 0
	r := sim.routers[hub]
	// Batch: for each destination d (originated by spoke node d), a
	// different spoke announces a longer (worse) path.
	batch := make([]Update, degree/2)
	for i := range batch {
		dest := ASN(i + 1)
		spoke := i + 2 // never the origin spoke for this dest
		batch[i] = updateFrom(r, spoke, dest, Path{ASN(spoke), 900, dest})
	}
	r.receive.busyStart = sim.eng.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.finishProcessing(batch)
	}
}

// starNetwork builds a hub-and-spoke AS graph: node 0 is the hub peered
// with every spoke, giving it the requested degree.
func starNetwork(b *testing.B, degree int) *topology.Network {
	b.Helper()
	nw := topology.NewNetwork(degree + 1)
	for spoke := 1; spoke <= degree; spoke++ {
		if err := nw.AddLink(0, spoke, false); err != nil {
			b.Fatal(err)
		}
	}
	return nw
}

func BenchmarkInboxFIFO(b *testing.B) {
	q := newTestInbox(QueueFIFO, true)
	u := ann(1, 100, 1, 2, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(u)
		q.Pop()
	}
}

func BenchmarkInboxBatched(b *testing.B) {
	q := newTestInbox(QueueBatched, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Three updates for one destination, two from the same neighbor:
		// exercises the staleness-discard path.
		q.Push(ann(1, i%50, 1))
		q.Push(ann(2, i%50, 2))
		q.Push(ann(1, i%50, 3))
		q.Pop()
		q.TakeDiscarded()
	}
}

func BenchmarkPathHelpers(b *testing.B) {
	tab := testTab()
	ref := tab.intern(Path{4, 9, 23, 17, 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tab.contains(ref, 99) {
			b.Fatal("unexpected")
		}
		_ = tab.prepend(1, ref)
	}
}

// BenchmarkSweep times one path-table sweep of a 120-node world in mid
// storm, two seconds after its 12 central nodes fail: RIBs half rewritten,
// updates queued and on the links, the table full of explored paths. A
// first sweep runs off the clock, so every timed one walks the same
// table. ns/cell divides by the root cells a sweep visits, ns/node by the
// nodes the table has handed out.
func BenchmarkSweep(b *testing.B) {
	nw, err := topology.SkewedNetwork(topology.Skewed7030(120), des.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	p := equivalenceParams(1, nil)
	p.ref = 0
	sim, err := New(nw, p)
	if err != nil {
		b.Fatal(err)
	}
	if err := sim.ConvergeInitial(); err != nil {
		b.Fatal(err)
	}
	at := sim.Now() + SettleMargin
	sim.ScheduleFailure(at, topology.NearestNodes(nw, topology.GridCenter(nw), 12, nil))
	if err := sim.RunUntil(at + 2*time.Second); err != nil {
		b.Fatal(err)
	}
	if sim.forEachInFlight(func(*routeRef) {}) == 0 {
		b.Fatal("nothing in flight: the storm is over")
	}
	sim.sweep()
	cells := sim.swept.SweptCells
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.sweep()
	}
	ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(ns/float64(cells), "ns/cell")
	b.ReportMetric(ns/float64(sim.tab.n), "ns/node")
}

package bgp

import (
	"fmt"
	"strings"
	"testing"

	"bgpsim/internal/topology"
)

// TestCompactionBehaviorNeutral pins that the quiescence path-table
// compaction sweep changes nothing observable: a run that compacts (and
// renumbers every live ref) produces byte-identical figures and final
// routes to one that never compacts, in both shared-table modes, and the
// sweep itself shrinks the table.
func TestCompactionBehaviorNeutral(t *testing.T) {
	nw, _ := oracleTopology(t)
	fail := topology.NearestNodes(nw, topology.GridCenter(nw), 4, nil)

	for _, shards := range []int{1, 4} {
		p := equivalenceParams(5, nil)
		p.Shards = shards

		plain, err := New(nw, p)
		if err != nil {
			t.Fatal(err)
		}
		want := digestRun(t, plain, nw, fail)
		if got := plain.PathTableStats(); got.Compactions != 0 {
			t.Fatalf("shards=%d: compaction triggered below thresholds: %+v", shards, got)
		}

		p.ref = refCompactAlways
		compacted, err := New(nw, p)
		if err != nil {
			t.Fatal(err)
		}
		got := digestRun(t, compacted, nw, fail)
		if got.summary != want.summary {
			t.Errorf("shards=%d: compacted run diverged\nplain:\n%s\ncompacted:\n%s",
				shards, want.summary, got.summary)
		}
		st := compacted.PathTableStats()
		if st.Compactions != 1 {
			t.Fatalf("shards=%d: expected exactly one sweep, got %+v", shards, st)
		}
	}
}

// TestCompactionShrinksTable checks the sweep's actual effect: right
// after a compacted phase 1 the table holds the live paths and the
// ancestors their nodes name, far fewer than the exploration storm
// registered; every route still reads the same; and a second sweep finds
// nothing more to drop.
func TestCompactionShrinksTable(t *testing.T) {
	nw, _ := oracleTopology(t)

	p := equivalenceParams(5, nil)
	sim, err := New(nw, p)
	if err != nil {
		t.Fatal(err)
	}
	sim.Start()
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	before := sim.PathTableStats()
	if before.Live >= before.Registered {
		t.Fatalf("no dead paths to reclaim: %+v", before)
	}
	routes := func() string {
		var b strings.Builder
		for _, dest := range sim.Destinations() {
			for id := 0; id < nw.NumNodes(); id++ {
				path, ok := sim.LocPath(id, dest)
				fmt.Fprintln(&b, id, dest, path, ok)
			}
		}
		return b.String()
	}
	want := routes()

	sim.params.ref = refCompactAlways
	sim.maybeCompactPaths()
	after := sim.PathTableStats()
	if after.Compactions != 1 {
		t.Fatalf("sweep did not run: %+v", after)
	}
	if after.Live != before.Live || after.Registered < after.Live || after.Registered >= before.Registered {
		t.Fatalf("compacted table should hold the live set and its ancestors only: before %+v, after %+v",
			before, after)
	}
	// The converged state must survive the renumbering intact.
	if got := routes(); got != want {
		t.Fatalf("routes changed across compaction\nbefore:\n%s\nafter:\n%s", want, got)
	}
	// Whatever is registered and not live is there because a live path
	// (PathTableStats just marked them) descends from it.
	kept := make(map[routeRef]bool)
	for ref := routeRef(after.Registered); ref > emptyRef; ref-- {
		if sim.tab.marks.has(int(ref)) || kept[ref] {
			kept[sim.tab.node(ref).parent] = true
		} else {
			t.Fatalf("ref %d (%v) survived the sweep with no live descendant", ref, sim.tab.path(ref))
		}
	}

	sim.maybeCompactPaths()
	again := sim.PathTableStats()
	if again.Compactions != 2 || again.Registered != after.Registered || again.Live != after.Live {
		t.Fatalf("second sweep was not a no-op: first %+v, second %+v", after, again)
	}
	if got := routes(); got != want {
		t.Fatalf("routes changed across the second sweep\nbefore:\n%s\nafter:\n%s", want, got)
	}
}

// TestWarmStartMatchesCompactedCold closes the triangle: a cold run that
// compacts at quiescence still matches the warm-started run bit for bit.
func TestWarmStartMatchesCompactedCold(t *testing.T) {
	nw, _ := oracleTopology(t)
	fail := topology.NearestNodes(nw, topology.GridCenter(nw), 4, nil)

	p := equivalenceParams(3, nil)
	p.ref = refCompactAlways
	cold, err := New(nw, p)
	if err != nil {
		t.Fatal(err)
	}
	want := warmDigest(t, cold, nw, fail)
	if st := cold.PathTableStats(); st.Compactions != 1 {
		t.Fatalf("cold run did not compact: %+v", st)
	}

	p.WarmStart = true
	warm, err := New(nw, p)
	if err != nil {
		t.Fatal(err)
	}
	got := warmDigest(t, warm, nw, fail)
	if got != want {
		t.Errorf("warm start diverged from compacted cold start\ncold:\n%s\nwarm:\n%s", want, got)
	}
}

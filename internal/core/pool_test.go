package core

import (
	"runtime"
	"slices"
	"testing"
)

// TestLookedUpExperimentKeepsItsSimulators pins the lifetime of a
// looked-up experiment's simulator pool: it lasts as long as the value,
// so a second Run rebinds the simulators the first one grew and renders
// the same bytes. The first Run also builds and memoizes the worlds; the
// second allocates little beyond each trial's results.
func TestLookedUpExperimentKeepsItsSimulators(t *testing.T) {
	e := mustLookup(t, "fig3")
	o := QuickOptions()
	o.Workers = 1
	var ms runtime.MemStats
	run := func() (string, uint64) {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		fig, err := e.Run(o)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		return fig.Render(), ms.TotalAlloc - before
	}
	first, cold := run()
	second, warm := run()
	t.Logf("first Run %d B, second %d B", cold, warm)
	if second != first {
		t.Errorf("second Run rendered\n%s\nfirst\n%s", second, first)
	}
	if 20*warm >= cold {
		t.Errorf("second Run allocated %d B, not under 5%% of the first's %d B", warm, cold)
	}
}

// TestRegistryPoolIsOrderFree pins that sharing one pool across a
// registry table changes no figure: the table run front to back and
// back to front renders every figure as a fresh Lookup, whose pool has
// run nothing before, does.
func TestRegistryPoolIsOrderFree(t *testing.T) {
	o := microOptions()
	o.Workers = 2
	render := func(e Experiment) string {
		fig, err := e.Run(o)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		return fig.Render()
	}
	want := make(map[string]string)
	for _, e := range Registry() {
		want[e.ID] = render(mustLookup(t, e.ID))
	}
	forward := Registry()
	reverse := slices.Clone(Registry())
	slices.Reverse(reverse)
	for name, table := range map[string][]Experiment{"forward": forward, "reverse": reverse} {
		for _, e := range table {
			if got := render(e); got != want[e.ID] {
				t.Errorf("%s order, %s: table run rendered\n%s\nfresh Lookup\n%s", name, e.ID, got, want[e.ID])
			}
		}
	}
}

// TestPoolOwnership pins who shares a pool: every entry of one registry
// table, and nothing else — not two tables, not two Lookups.
func TestPoolOwnership(t *testing.T) {
	table := Registry()
	for _, e := range table {
		if e.pool == nil || e.pool != table[0].pool {
			t.Fatalf("%s does not share its table's pool", e.ID)
		}
	}
	if Registry()[0].pool == table[0].pool {
		t.Error("two Registry tables share a pool")
	}
	a, b := mustLookup(t, "fig3"), mustLookup(t, "fig3")
	if a.pool == nil || a.pool == b.pool {
		t.Error("two Lookups share a pool")
	}
}

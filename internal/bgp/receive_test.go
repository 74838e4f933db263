package bgp

import (
	"slices"
	"testing"
	"time"
)

// TestReceiveStation delivers one update from node 0 to router 1 of the
// line 0-1-2, whose Adj-RIB-In may already hold a route for dest 9 from
// node 0, and pins what the receive station does with it: it stores what
// arrives, unchecked (no update carries its receiver's AS; the sender's
// half is in TestFlushStation), and SkipNoopUpdates discards an update
// that would not change the Adj-RIB-In before it reaches the CPU.
func TestReceiveStation(t *testing.T) {
	rows := []struct {
		name      string
		skipNoop  bool
		stored    Path // the route already held from node 0; nil for none
		update    Path // nil for a withdrawal
		processed int
		discarded int
		wantIn    Path // the route held from node 0 after; nil for none
	}{
		{name: "a new route is stored", update: Path{0, 9}, processed: 1, wantIn: Path{0, 9}},
		{name: "a duplicate is processed by default", stored: Path{0, 9}, update: Path{0, 9}, processed: 1, wantIn: Path{0, 9}},
		{name: "skip-noop discards the stored route announced again", skipNoop: true,
			stored: Path{0, 9}, update: Path{0, 9}, discarded: 1, wantIn: Path{0, 9}},
		{name: "skip-noop discards a withdrawal of nothing", skipNoop: true, discarded: 1},
		{name: "skip-noop keeps a changed route", skipNoop: true,
			stored: Path{0, 9}, update: Path{0, 5, 9}, processed: 1, wantIn: Path{0, 5, 9}},
		{name: "skip-noop keeps a withdrawal of the stored route", skipNoop: true,
			stored: Path{0, 9}, processed: 1},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			p := strictParams(time.Second)
			p.SkipNoopUpdates = row.skipNoop
			sim := mustSim(t, buildLine(t, 3), p)
			sim.col.OpenWindow(0)
			r := sim.routers[1]
			if row.stored != nil {
				ribIn(r).set(9, 0, row.stored)
				r.runDecision(9)
			}
			r.enqueue(updateFrom(r, 0, 9, row.update))
			// Processing takes 10 ms; what router 1 sends arrives 25 ms later.
			if err := sim.RunUntil(20 * time.Millisecond); err != nil {
				t.Fatal(err)
			}
			if sim.col.TotalProcessed != row.processed || sim.col.Discarded != row.discarded {
				t.Errorf("processed %d, discarded %d; want %d, %d",
					sim.col.TotalProcessed, sim.col.Discarded, row.processed, row.discarded)
			}
			got, _ := ribIn(r).get(9, 0)
			if !slices.Equal(got, row.wantIn) || (got == nil) != (row.wantIn == nil) {
				t.Errorf("Adj-RIB-In holds %v, want %v", got, row.wantIn)
			}
			loc, ok := sim.LocPath(1, 9)
			if !slices.Equal(loc, row.wantIn) || ok != (row.wantIn != nil) {
				t.Errorf("Loc-RIB holds %v (%v), want %v", loc, ok, row.wantIn)
			}
		})
	}
}

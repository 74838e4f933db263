package bgp

import (
	"slices"
	"testing"
	"time"

	"bgpsim/internal/topology"
)

// TestDecideStationClassify applies one update to the hub of a star
// (hub 0; spokes 1, 2, 3 at slots 0, 1, 2; spokes 2 and 3 also linked)
// whose Adj-RIB-In holds [1 9 50] from spoke 1 and the winner [2 50]
// from spoke 2, and pins classify's outcome against the full decide scan
// over the resulting Adj-RIB-In. A row with a sender path first checks
// that the spoke, holding that Loc-RIB path, would send exactly the
// row's update: no update carries its receiver's AS, so a path through
// the hub's AS reaches the hub as what the spoke sends in its place.
// The outcomes:
//
//	(a) the update becomes the working best without a scan;
//	(b) the working best stands, a decision no-op;
//	(c) the full scan is flagged.
//
// In (a) and (b) the working best must be the slot the full scan picks,
// and in every case the decide station must commit that slot.
func TestDecideStationClassify(t *testing.T) {
	rows := []struct {
		name    string
		from    NodeID
		path    Path // nil for a withdrawal
		outcome byte
		best    int16 // the full scan's winner afterwards
		sender  Path  // the spoke's Loc-RIB path (learned from its first AS) that path is sent for; nil to skip
	}{
		{"a strictly better route (tie broken on peer AS)", 1, Path{1, 50}, 'a', 0, nil},
		{"a first route from a silent peer that loses", 3, Path{3, 7, 50}, 'b', 1, nil},
		{"a withdrawal of a route that is not the best", 1, nil, 'b', 1, nil},
		{"an equal-rank re-announcement on the best slot", 2, Path{2, 8}, 'b', 1, nil},
		{"a strictly better re-announcement on the best slot", 2, Path{2}, 'b', 1, nil},
		{"a withdrawal of the working best", 2, nil, 'c', 0, nil},
		{"a strict worsening of the working best", 2, Path{2, 7, 8, 50}, 'c', 0, nil},
		{"a path through the hub's AS arrives as a withdrawal", 2, nil, 'c', 0, Path{3, 0, 50}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			nw := topology.NewNetwork(4)
			for _, l := range [][2]int{{0, 1}, {0, 2}, {0, 3}, {2, 3}} {
				if err := nw.AddLink(l[0], l[1], false); err != nil {
					t.Fatal(err)
				}
			}
			sim := mustSim(t, nw, strictParams(time.Second))
			hub := sim.routers[0]
			d, b := &hub.decide, &sim.batch
			ribIn(hub).set(50, 1, Path{1, 9, 50})
			ribIn(hub).set(50, 2, Path{2, 50})
			hub.runDecision(50)
			if d.bestSlot[50] != 1 {
				t.Fatalf("initial winner at slot %d, want 1", d.bestSlot[50])
			}

			u := updateFrom(hub, row.from, 50, row.path)
			if row.sender != nil {
				spoke := sim.routers[row.from]
				spoke.setLocForTest(50, row.sender, row.sender[0])
				u.Ref = spoke.desiredAdvert(50, mustPeer(spoke.peers, hub.id))
				if got := sim.tab.path(u.Ref); !slices.Equal(got, row.path) || (got == nil) != (row.path == nil) {
					t.Fatalf("spoke %d sends %v for its path %v, want %v", row.from, got, row.sender, row.path)
				}
			}
			hub.applyBatch([]Update{u})
			outcome := byte('b')
			switch {
			case b.scanNeeded.has(50):
				outcome = 'c'
			case b.workSlot[50] != d.bestSlot[50]:
				outcome = 'a'
			}
			if outcome != row.outcome {
				t.Errorf("outcome (%c), want (%c)", outcome, row.outcome)
			}
			want, ok := decide(&hub.receive.adjIn, 50, hub.peers, hub.peerAlive, nil)
			if !ok || want.slot != row.best {
				t.Fatalf("full scan picks slot %d (ok=%v), want %d", want.slot, ok, row.best)
			}
			if outcome != 'c' && b.workSlot[50] != want.slot {
				t.Errorf("working best at slot %d, full scan picks %d", b.workSlot[50], want.slot)
			}
			hub.decideTouched()
			if d.bestSlot[50] != want.slot || b.touched.any() || b.scanNeeded.any() {
				t.Errorf("committed slot %d (touched %v, scan %v), want %d",
					d.bestSlot[50], b.touched.any(), b.scanNeeded.any(), want.slot)
			}
		})
	}
}

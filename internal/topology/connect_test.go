package topology

import (
	"fmt"
	"slices"
	"testing"

	"bgpsim/internal/des"
)

// connectReference is connect as it was before the merger: it searches
// the whole network for its components before every round. It is kept,
// with mergeReference, as the reference connect must match pick for pick.
func connectReference(x linkIndex, rng *des.RNG) error {
	var comps components
	for guard := 0; guard < x.nw.NumNodes()+10; guard++ {
		comps.find(x.nw)
		if len(comps.spans) <= 1 {
			return nil
		}
		if !mergeReference(x, comps.nodes(0), comps.nodes(1), rng) {
			return ErrDegreeSequence
		}
	}
	if !x.nw.Connected() {
		return ErrDegreeSequence
	}
	return nil
}

// mergeReference joins other into main. It prefers the degree-preserving swap
// (a,b)+(c,d) -> (a,c)+(b,d) with (a,b) in main and (c,d) in other; if
// either has no links (an isolated node), it adds one link. A component
// is closed under adjacency, so a member's links to higher-numbered nodes
// are exactly its links within the component.
func mergeReference(x linkIndex, main, other []int, rng *des.RNG) bool {
	nw := x.nw
	mainLinks, otherLinks := x.count(main), x.count(other)
	if otherLinks == 0 || mainLinks == 0 {
		// Isolated node or edgeless component: attach it directly.
		a := other[rng.Intn(len(other))]
		for attempt := 0; attempt < 50; attempt++ {
			b := main[rng.Intn(len(main))]
			if !nw.HasLink(a, b) {
				x.add(a, b)
				return true
			}
		}
		return false
	}
	for attempt := 0; attempt < 200; attempt++ {
		l1 := x.linkIn(main, rng.Intn(mainLinks))
		l2 := x.linkIn(other, rng.Intn(otherLinks))
		a, b, c, d := l1.A, l1.B, l2.A, l2.B
		if nw.HasLink(a, c) || nw.HasLink(b, d) {
			continue
		}
		x.remove(a, b)
		x.remove(c, d)
		x.add(a, c)
		x.add(b, d)
		return true
	}
	return false
}

// count and linkIn are linksOf and linkOf on the []int node lists
// components.find gives, as the reference calls them.
func (x linkIndex) count(nodes []int) int               { return linksOf(x, nodes) }
func (x linkIndex) linkIn(nodes []int, k int) Neighbor2 { return linkOf(x, nodes, k) }

// kindDegrees draws the degree sequence Spec{Kind: k, N: n}.Build realizes
// with FromDegreeSequence: the AS-level graph's, for the realistic family.
func kindDegrees(k Kind, n int, rng *des.RNG) ([]int, error) {
	switch k {
	case KindSkewed7030:
		return Skewed7030(n).Degrees(rng)
	case KindSkewed5050:
		return Skewed5050(n).Degrees(rng)
	case KindSkewed8515:
		return Skewed8515(n).Degrees(rng)
	case KindSkewed5050Dense:
		return Skewed5050Dense(n).Degrees(rng)
	case KindInternetLike:
		return InternetLikeDegrees(n, paperAvgDegree, paperMaxDegree, rng)
	case KindRealistic:
		s := DefaultRealistic(n)
		return InternetLikeDegrees(n, s.AvgDegree, s.MaxDegree, rng)
	}
	return nil, fmt.Errorf("no degree law for kind %q", k)
}

// connectBoth pairs degrees' stubs twice from one seed, connects one
// network with connect and the other with connectReference, and fails t
// unless both return the same error, leave every adjacency list equal
// element for element and leave their streams at the same draw. It
// returns connect's error.
func connectBoth(t testing.TB, degrees []int, seed int64) error {
	t.Helper()
	type result struct {
		nw   *Network
		err  error
		next int64
	}
	run := func(connectWith func(linkIndex, *des.RNG) error) result {
		rng := des.NewRNG(seed)
		x, err := pairStubs(degrees, rng)
		if err != nil {
			t.Fatalf("pairing %v: %v", degrees, err)
		}
		err = connectWith(x, rng)
		return result{x.nw, err, rng.Int63()}
	}
	got, want := run(connect), run(connectReference)
	if got.err != want.err {
		t.Fatalf("seed %d: connect returned %v, the reference %v", seed, got.err, want.err)
	}
	for v := range want.nw.adj {
		if !slices.Equal(got.nw.adj[v], want.nw.adj[v]) {
			t.Fatalf("seed %d: node %d's adjacency %v, the reference's %v", seed, v, got.nw.adj[v], want.nw.adj[v])
		}
	}
	if got.nw.links != want.nw.links || got.next != want.next {
		t.Fatalf("seed %d: %d links and next draw %d, the reference's %d and %d",
			seed, got.nw.links, got.next, want.nw.links, want.next)
	}
	return got.err
}

// TestConnectMatchesReference holds connect to the loop that searched the
// whole network every round: for every kind at five sizes and twenty
// seeds, the same links in the same adjacency order, the same error and
// the same number of draws. Any difference would change a world.
func TestConnectMatchesReference(t *testing.T) {
	for _, k := range Kinds() {
		t.Run(string(k), func(t *testing.T) {
			t.Parallel()
			for _, n := range []int{20, 30, 120, 500, 2000} {
				for seed := int64(1); seed <= 20; seed++ {
					degrees, err := kindDegrees(k, n, des.NewRNG(seed))
					if err != nil {
						t.Fatal(err)
					}
					if err := connectBoth(t, degrees, seed); err != nil {
						t.Fatalf("n=%d seed %d: %v", n, seed, err)
					}
				}
			}
		})
	}
}

// TestConnectMatchesReferenceCrafted runs the sequences the families
// rarely or never draw: many pairs, a hub with leaves, isolated nodes
// (connect's attach path) and forests. A forest has fewer links than a
// tree on its nodes, and a swap keeps the count, so it can never connect:
// the rounds run out and both return ErrDegreeSequence. (The attach and
// swap attempt limits of mergeReference are never reached: its picks lie
// in different components, which no link joins.)
func TestConnectMatchesReferenceCrafted(t *testing.T) {
	// repeat makes an n-node sequence cycling through pattern.
	repeat := func(n int, pattern ...int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = pattern[i%len(pattern)]
		}
		return out
	}
	// hub makes node 0 a hub of degree d among n-1 nodes of degree leaf.
	hub := func(n, d, leaf int) []int {
		out := repeat(n, leaf)
		out[0] = d
		return out
	}
	cases := []struct {
		name    string
		degrees []int
		err     error
	}{
		{"pairs", repeat(40, 1), ErrDegreeSequence},
		{"hub-and-leaves", hub(30, 20, 1), ErrDegreeSequence},
		{"hub-and-paths", hub(31, 10, 2), nil},
		{"isolated", repeat(40, 0, 3, 3, 2), nil},
		{"mostly-isolated", repeat(60, 4, 0, 0, 0, 0, 0), nil},
		{"cycles", repeat(90, 2), nil},
		{"forest", repeat(50, 1, 1, 2, 1, 3), ErrDegreeSequence},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			evenizeDegrees(c.degrees)
			for seed := int64(1); seed <= 20; seed++ {
				if err := connectBoth(t, c.degrees, seed); err != c.err {
					t.Fatalf("seed %d: %v, want %v", seed, err, c.err)
				}
			}
		})
	}
}

// FuzzConnectMatchesReference turns the fuzz bytes into a degree sequence,
// one byte a node (at most 200 nodes, each degree below the count, the sum
// made even), and holds connect to connectReference on it.
func FuzzConnectMatchesReference(f *testing.F) {
	f.Add(int64(1), []byte{1, 1, 1, 1, 1, 1})
	f.Add(int64(2), []byte{0, 3, 3, 2, 0, 5, 1, 1, 2})
	f.Add(int64(3), []byte{9, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		if len(data) < 2 {
			return
		}
		data = data[:min(len(data), 200)]
		degrees := make([]int, len(data))
		for i, b := range data {
			degrees[i] = int(b) % len(data)
		}
		if degrees[0] == len(data)-1 {
			degrees[0]--
		}
		evenizeDegrees(degrees)
		connectBoth(t, degrees, seed)
	})
}

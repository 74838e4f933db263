package bgp

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"bgpsim/internal/des"
)

// pathModel is the plain-slice reference the table is checked against:
// every ref the table has handed out with the path it must name, and the
// inverse, which is what makes a ref an identity.
type pathModel struct {
	t      *testing.T
	tab    *pathTab
	byRef  map[routeRef]Path
	byPath map[string]routeRef
	refs   []routeRef      // byRef's keys, for random picks
	closed map[string]bool // every noted path and all its suffixes: what the table must hold
}

func newPathModel(t *testing.T, tab *pathTab) *pathModel {
	m := &pathModel{t: t, tab: tab}
	m.forget()
	return m
}

// forget mirrors pathTab.reset.
func (m *pathModel) forget() {
	m.byRef = map[routeRef]Path{}
	m.byPath = map[string]routeRef{}
	m.closed = map[string]bool{}
	m.refs = m.refs[:0]
	m.note(emptyRef, Path{})
}

// note records that the table returned ref for want and checks both
// directions of ref equality ⇔ path equality.
func (m *pathModel) note(ref routeRef, want Path) {
	m.t.Helper()
	key := fmt.Sprint(want)
	if prev, ok := m.byPath[key]; ok {
		if prev != ref {
			m.t.Fatalf("path %v interned as ref %d, earlier as ref %d", want, ref, prev)
		}
		return
	}
	if other, ok := m.byRef[ref]; ok {
		m.t.Fatalf("ref %d names both %v and %v", ref, other, want)
	}
	m.byRef[ref], m.byPath[key] = want, ref
	m.refs = append(m.refs, ref)
	for p := want; !m.closed[fmt.Sprint(p)]; p = p[1:] {
		m.closed[fmt.Sprint(p)] = true
		if len(p) == 0 {
			break
		}
	}
}

// check compares everything the table can say about ref with the model.
func (m *pathModel) check(ref routeRef, probes []ASN) {
	m.t.Helper()
	want := m.byRef[ref]
	got := m.tab.path(ref)
	if !pathsEqual(got, want) {
		m.t.Fatalf("ref %d materializes as %v, want %v", ref, got, want)
	}
	if m.tab.len(ref) != len(want) {
		m.t.Fatalf("ref %d: len %d, want %d", ref, m.tab.len(ref), len(want))
	}
	if mask := m.tab.node(ref).mask; mask != pathASMask(want) {
		m.t.Fatalf("ref %d: mask %#x, want %#x", ref, mask, pathASMask(want))
	}
	for _, as := range probes {
		if m.tab.contains(ref, as) != pathContains(want, as) {
			m.t.Fatalf("ref %d (%v): contains(%d) = %v", ref, want, as, !pathContains(want, as))
		}
	}
}

func (m *pathModel) pick(rng *rand.Rand) routeRef { return m.refs[rng.Intn(len(m.refs))] }

// TestPathTabMatchesSliceReference drives random prepend and intern
// sequences through the trie and a plain []ASN reference. The AS
// alphabet is small and spans two mask periods (as and as+64 share a
// bit), so derivations collide on purpose: repeated prepends must hit,
// foreign paths must land on derived refs, and mask false positives must
// be resolved by the parent walk. The long run crosses from the doubling
// chunks into the fixed-size ones.
func TestPathTabMatchesSliceReference(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		ops  int
	}{{1, 3000}, {2, 3000}, {3, 3000}, {4, 150000}} {
		rng := rand.New(rand.NewSource(tc.seed))
		tab := testTab()
		m := newPathModel(t, tab)
		as := func() ASN { return ASN(rng.Intn(12) + 60) } // 64..71 set mask bits 0..7, which probes 0, 3 and 128 share
		probes := []ASN{0, 3, 60, 63, 64, 67, 71, 128}
		var derived []Path // replayed after reset
		for op := 0; op < tc.ops; op++ {
			var ref routeRef
			switch k := rng.Intn(10); {
			case k < 6: // the simulator's own move: prepend onto a held path
				parent := m.pick(rng)
				a := as()
				ref = tab.prepend(a, parent)
				m.note(ref, prependPath(a, m.byRef[parent]))
			case k < 9: // a foreign path, interned twice
				p := make(Path, rng.Intn(6))
				for i := range p {
					p[i] = as()
				}
				ref = tab.intern(p)
				m.note(ref, p)
				if again := tab.intern(clonePath(p)); again != ref {
					t.Fatalf("path %v interned as %d then %d", p, ref, again)
				}
			default: // nil and empty stay apart
				if tab.intern(nil) != 0 || tab.path(0) != nil || tab.contains(0, 60) {
					t.Fatal("nil is not the zero ref")
				}
				ref = tab.intern(Path{})
				if p := tab.path(ref); ref != emptyRef || p == nil || len(p) != 0 {
					t.Fatalf("empty path interned as ref %d, materializes as %#v", ref, p)
				}
			}
			m.check(ref, probes)
			if len(derived) < 500 {
				derived = append(derived, m.byRef[ref])
			}
		}
		for _, ref := range m.refs[:min(len(m.refs), 2000)] {
			m.check(ref, probes)
		}
		if tab.size() != len(m.closed) {
			t.Fatalf("seed %d: table holds %d paths, the model's paths and their suffixes are %d", tc.seed, tab.size(), len(m.closed))
		}

		// A path re-derived after reset gets a ref of the new trial, again
		// unique to it.
		tab.reset()
		m.forget()
		for _, p := range derived {
			ref := tab.intern(p)
			m.note(ref, p)
			m.check(ref, probes)
		}
	}
}

// TestPathLenPastSaturation walks one path out to 600 hops, past where a
// node's stored hop count saturates, and checks every length on the way
// against the model: len, the materialized path, hits on re-derivation,
// and contains for an AS only the far end holds.
func TestPathLenPastSaturation(t *testing.T) {
	tab := testTab()
	m := newPathModel(t, tab)
	ref, want := tab.intern(Path{7000}), Path{7000}
	for hop := 1; hop < 600; hop++ {
		as := ASN(hop%40 + 1)
		next := tab.prepend(as, ref)
		want = prependPath(as, want)
		m.note(next, want)
		m.check(next, []ASN{7000, as, 41})
		if again := tab.prepend(as, ref); again != next {
			t.Fatalf("hop %d: re-derived as ref %d, first %d", hop, again, next)
		}
		ref = next
	}
	if got := tab.len(ref); got != 600 || got <= maxLen8 {
		t.Fatalf("len = %d, want 600 (past the saturation point %d)", got, maxLen8)
	}
}

// TestPathTabCompactKeepsMarkedAndAncestors exercises the sweep at
// table level: marked paths and their ancestors survive under the refs
// they had, everything else goes onto the free chain, prepend finds the
// survivors again (the index was rebuilt) and never hands back a free
// node as a hit, new paths fill the holes before the table grows, and a
// path registered into a hole below its parent keeps the parent's whole
// ancestry alive at the next sweep.
func TestPathTabCompactKeepsMarkedAndAncestors(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tab := testTab()
	refs := []routeRef{emptyRef}
	for i := 0; i < 5000; i++ {
		refs = append(refs, tab.prepend(ASN(rng.Intn(40)), refs[rng.Intn(len(refs))]))
	}
	before := tab.size()

	// The cells a Simulator would hold: a random tenth of the paths.
	var cells []routeRef
	var want []Path
	for _, ref := range refs {
		if rng.Intn(10) == 0 {
			cells = append(cells, ref)
			want = append(want, tab.path(ref))
		}
	}
	sweep := func() {
		t.Helper()
		tab.clearMarks()
		tab.markColumn(cells)
		live := tab.closeMarks()
		tab.release(live)
		if tab.size() != live {
			t.Fatalf("sweep kept %d marked paths, the table counts %d", live, tab.size())
		}
	}
	// check holds the table to the cells: every other node is on the free
	// chain, once, and no registered node names a free parent; each cell
	// still names its path under its ref and is found again by interning;
	// and the registered nodes are exactly the cells' paths and their
	// suffixes.
	check := func() {
		t.Helper()
		free := map[routeRef]bool{}
		for ref := tab.free; ref != 0; ref = tab.node(ref).fwd {
			if free[ref] || tab.node(ref).parent != 0 {
				t.Fatalf("free chain revisits ref %d or holds a registered node", ref)
			}
			free[ref] = true
		}
		for ref := emptyRef + 1; ref <= routeRef(tab.n); ref++ {
			if parent := tab.node(ref).parent; !free[ref] && free[parent] {
				t.Fatalf("ref %d names parent %d, which is free", ref, parent)
			}
		}
		needed := map[string]bool{}
		for i, ref := range cells {
			if got := tab.path(ref); !pathsEqual(got, want[i]) {
				t.Fatalf("cell %d: %v became %v", i, want[i], got)
			}
			if again := tab.intern(want[i]); again != ref {
				t.Fatalf("cell %d: %v re-interned as %d, held as %d", i, want[i], again, ref)
			}
			for p := want[i]; ; p = p[1:] {
				needed[fmt.Sprint(p)] = true
				if len(p) == 0 {
					break
				}
			}
		}
		if tab.size() != len(needed) {
			t.Fatalf("table holds %d paths, live cells and their ancestors are %d", tab.size(), len(needed))
		}
		for ref := emptyRef + 1; ref <= routeRef(tab.n); ref++ {
			if !free[ref] && !needed[fmt.Sprint(tab.path(ref))] {
				t.Fatalf("ref %d (%v) survived without a live descendant", ref, tab.path(ref))
			}
		}
		if len(free)+tab.size() != int(tab.n) {
			t.Fatalf("%d free and %d registered nodes, %d handed out", len(free), tab.size(), tab.n)
		}
	}
	sweep()
	if tab.size() >= before || tab.size() < len(want) {
		t.Fatalf("sweep left %d of %d paths for %d live cells", tab.size(), before, len(cells))
	}
	check()
	after, n := tab.size(), tab.n
	held := append([]routeRef(nil), cells...)
	sweep()
	if tab.size() != after || tab.n != n || !slices.Equal(cells, held) {
		t.Fatalf("second sweep changed the table: %d -> %d paths, %d -> %d nodes", after, tab.size(), n, tab.n)
	}

	// A new path off the newest long survivor lands in the lowest hole,
	// below its parent. Only the new path is held, so the parent's
	// ancestors must be reached through a node that precedes it.
	var parent routeRef
	for _, ref := range cells {
		if ref > parent && tab.len(ref) >= 3 {
			parent = ref
		}
	}
	hole := tab.free
	path := tab.prepend(100, parent)
	if path != hole || path > parent || tab.n != n {
		t.Fatalf("prepend onto ref %d returned ref %d with %d nodes, want the lowest hole %d with %d", parent, path, tab.n, hole, n)
	}
	for ref := tab.free; ref != 0; ref = tab.node(ref).fwd {
		if ref == path {
			t.Fatalf("prepend returned ref %d, which is still on the free chain", ref)
		}
	}
	cells, want = []routeRef{path}, []Path{tab.path(path)}
	sweep()
	check()
}

// TestPackedSizes pins the layouts the allocation budget rests on.
func TestPackedSizes(t *testing.T) {
	if n := unsafe.Sizeof(des.Event{}); n > 64 {
		t.Errorf("des.Event is %d bytes, want <= 64", n)
	}
	if n := unsafe.Sizeof(Update{}); n > 16 {
		t.Errorf("Update is %d bytes, want <= 16", n)
	}
	if n := unsafe.Sizeof(pathNode{}); n > 20 {
		t.Errorf("pathNode is %d bytes, want <= 20", n)
	}
	// Back sits in the padding after Internal.
	if n := unsafe.Sizeof(Peer{}); n > 32 {
		t.Errorf("Peer is %d bytes, want <= 32", n)
	}
	// An update in flight: two to a cache line, and nothing for the
	// garbage collector to scan in a lane's chunks.
	if n := unsafe.Sizeof(laneEntry{}); n != 32 {
		t.Errorf("laneEntry is %d bytes, want 32", n)
	}
	if f, ok := pointerField(reflect.TypeOf(laneEntry{})); ok {
		t.Errorf("laneEntry holds a pointer in %s", f)
	}
}

// pointerField names the first field of typ, nested structs and arrays
// included, whose kind holds a pointer.
func pointerField(typ reflect.Type) (string, bool) {
	switch typ.Kind() {
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if name, ok := pointerField(f.Type); ok {
				return f.Name + "." + name, true
			}
		}
		return "", false
	case reflect.Array:
		return pointerField(typ.Elem())
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return "", false
	}
	return typ.String(), true
}

// TestPathTabBytesPerPath pins what a registered path costs: at most 25
// bytes each for 200 000 distinct paths into a fresh table, of which
// nothing is discarded on the way — growing from empty allocates at most
// 1.1 × what the table ends up holding (nodes with their chunk slack,
// bucket segments, the two chunk tables) — and nothing at all for the
// same sequence after reset.
func TestPathTabBytesPerPath(t *testing.T) {
	const paths = 200000
	register := func(tab *pathTab) {
		for i := 0; i < paths-1; i++ {
			// Distinct (as, parent) pairs; parent i/50+1 is registered by then.
			tab.prepend(ASN(i%50), routeRef(i/50+1))
		}
	}
	allocated := func(f func()) uint64 {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		f()
		runtime.ReadMemStats(&b)
		return b.TotalAlloc - a.TotalAlloc
	}
	var tab pathTab
	fresh := allocated(func() {
		tab.reset()
		register(&tab)
	})
	if tab.size() != paths {
		t.Fatalf("registered %d paths, want %d", tab.size(), paths)
	}
	if per := float64(fresh) / paths; per > 25 {
		t.Errorf("fresh table: %.1f B per registered path, want <= 25", per)
	}
	held := uint64(cap(tab.chunks))*uint64(unsafe.Sizeof(tab.chunks[0])) + uint64(cap(tab.heads))*uint64(unsafe.Sizeof(tab.heads[0]))
	for _, c := range tab.chunks {
		held += uint64(len(c)) * uint64(unsafe.Sizeof(c[0]))
	}
	for _, seg := range tab.heads {
		held += uint64(len(seg)) * uint64(unsafe.Sizeof(seg[0]))
	}
	t.Logf("allocated %d B growing to a table of %d B (%.1f B per path)", fresh, held, float64(fresh)/paths)
	if 10*fresh > 11*held {
		t.Errorf("growing to %d paths allocated %d B, more than 1.1 x the %d B the table holds: something was copied or dropped", paths, fresh, held)
	}
	var longest, links int
	for _, seg := range tab.heads {
		for _, ref := range seg {
			n := 0
			for ; ref != 0; ref = tab.node(ref).fwd {
				n++
			}
			longest, links = max(longest, n), links+n
		}
	}
	if links != paths-1 || longest > 16 {
		t.Errorf("chains hold %d of %d indexed paths, the longest %d: want all of them, none past 16", links, paths-1, longest)
	}
	// TotalAlloc is process-wide, so the runtime's own sporadic
	// allocations can land in a round; the table's would land in all.
	again := ^uint64(0)
	for round := 0; round < 5 && again != 0; round++ {
		again = min(again, allocated(func() {
			tab.reset()
			register(&tab)
		}))
	}
	if again != 0 {
		t.Errorf("after reset the same sequence allocated %d B, want 0", again)
	}
}

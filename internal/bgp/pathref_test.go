package bgp

// Plain-slice path operations: the reference the path table's property
// test (and the tests that compare materialized paths) check against.

// pathContains reports whether as appears on p.
func pathContains(p Path, as ASN) bool {
	for _, a := range p {
		if a == as {
			return true
		}
	}
	return false
}

// pathsEqual reports whether two paths are identical (nil != empty).
func pathsEqual(a, b Path) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// clonePath copies a path.
func clonePath(p Path) Path {
	if p == nil {
		return nil
	}
	out := make(Path, len(p))
	copy(out, p)
	return out
}

// prependPath returns a new path with as in front of p.
func prependPath(as ASN, p Path) Path {
	out := make(Path, 0, len(p)+1)
	out = append(out, as)
	out = append(out, p...)
	return out
}

// pathASMask folds the ASes on p into a node's Bloom mask.
func pathASMask(p Path) (m [2]uint32) {
	for _, as := range p {
		m[as>>5&1] |= 1 << (uint(as) & 31)
	}
	return m
}

// testUpdate builds the update arriving on the receiver's peer slot for
// path (nil: a withdrawal), interning it into the receiver's table.
// Every test that hand-builds an update goes through here; updateFrom
// names the sender by node id instead.
func testUpdate(tab *pathTab, slot int, dest ASN, path Path) Update {
	return Update{Slot: int32(slot), Dest: int32(dest), Ref: tab.intern(path)}
}

// updateFrom is the update node from sends r for path (nil: a
// withdrawal): testUpdate on from's slot at r.
func updateFrom(r *router, from NodeID, dest ASN, path Path) Update {
	return testUpdate(r.tab, mustPeer(r.peers, from), dest, path)
}

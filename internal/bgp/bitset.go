package bgp

import "math/bits"

// bitset is a fixed-capacity set of small non-negative integers (dense
// destination indices). It backs the per-slot pending sets and the
// presence bits of the dense RIB arrays. Every simulation loop that
// drains a bitset iterates it in ascending order: destinations are
// decided and flushed in ascending index order.
type bitset []uint64

// newBitset returns a set able to hold values in [0, n).
func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

// reuse returns an empty set over [0, n) in b's storage, or nil when b is
// too small: the fit of a lazily materialized set, which comes back when
// it is next needed.
func (b bitset) reuse(n int) bitset {
	words := (n + 63) / 64
	if cap(b) < words {
		return nil
	}
	b = b[:words]
	b.clearAll()
	return b
}

// fit returns an empty set over [0, n), in b's storage when it is large
// enough.
func (b bitset) fit(n int) bitset {
	if s := b.reuse(n); s != nil {
		return s
	}
	return newBitset(n)
}

// set adds i to the set.
func (b bitset) set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// clear removes i from the set.
func (b bitset) clear(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

// has reports whether i is in the set.
func (b bitset) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// any reports whether the set is non-empty.
func (b bitset) any() bool {
	for _, w := range b {
		if w != 0 {
			return true
		}
	}
	return false
}

// count returns the number of elements in the set.
func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// clearAll empties the set.
func (b bitset) clearAll() { clear(b) }

// appendIndices appends the elements of the set to out in ascending
// order and returns the extended slice.
func (b bitset) appendIndices(out []int) []int {
	for wi, w := range b {
		base := wi << 6
		for w != 0 {
			out = append(out, base+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return out
}

// appendIndicesAndNot appends the elements of b that are not in not to
// out in ascending order and returns the extended slice. not must have
// the same capacity as b. Backs the storm blocked-skip flush: the pending
// set minus the known-gate-blocked set.
func (b bitset) appendIndicesAndNot(not bitset, out []int) []int {
	for wi, w := range b {
		w &^= not[wi]
		base := wi << 6
		for w != 0 {
			out = append(out, base+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return out
}

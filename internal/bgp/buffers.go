package bgp

// A Simulator outlives the networks it runs on (see Simulator.Rebind), so
// nothing below is sized once: every array is fitted to the network and
// destination space of the coming run, in the storage the previous runs
// left behind whenever that is large enough. Reuse only ever skips an
// allocation. A fitted array has exactly the length a fresh one would
// have and its owner clears or fills it before the run reads it, so what
// a run computes cannot depend on what the storage held before.

// fit returns s with length n, in its own backing array when the
// capacity suffices and in a new one otherwise. The contents are
// unspecified; the caller overwrites them.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// refit is fit for a slice whose elements own storage worth keeping (the
// per-slot columns): growing copies the old elements over, and elements
// past n stay in the spare capacity for a later, larger binding.
func refit[T any](s []T, n int) []T {
	s = s[:cap(s)]
	if len(s) < n {
		s = append(s, make([]T, n-len(s))...)
	}
	return s[:n]
}

// fill sets every element of s to v.
func fill[T any](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}

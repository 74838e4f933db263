package bgp

import (
	"testing"

	"bgpsim/internal/des"
	"bgpsim/internal/topology"
)

// These tests pin the prefix dimension introduced with the compact route
// encoding. Two directions matter:
//
//   - backward: PrefixesPerAS = 1 (the explicit form of the default) must
//     be indistinguishable from a parameter set that never mentions
//     prefixes, for every scheme variant — the bgp-layer half of the
//     figure byte-identity guarantee;
//   - forward: with PrefixesPerAS > 1 the incremental decision process,
//     the simulator pool's Rebind reuse, and the full-scan baseline must
//     still agree on every observable.

// TestSinglePrefixExplicitMatchesDefaultAllVariants runs every scheme
// variant with PrefixesPerAS left zero and set to 1, requiring digest
// equality. A divergence here would mean the per-prefix dest reindexing
// is not a pure generalization of the single-prefix layout.
func TestSinglePrefixExplicitMatchesDefaultAllVariants(t *testing.T) {
	rng := des.NewRNG(31)
	nw, err := topology.SkewedNetwork(topology.Skewed7030(40), rng)
	if err != nil {
		t.Fatal(err)
	}
	fail := topology.NearestNodes(nw, topology.GridCenter(nw), 4, nil)
	for _, v := range resetVariants() {
		for seed := int64(1); seed <= 2; seed++ {
			p := equivalenceParams(seed, v.mutate)
			def, err := New(nw, p)
			if err != nil {
				t.Fatalf("%s seed %d: New: %v", v.name, seed, err)
			}
			want := digestRun(t, def, nw, fail)

			p.PrefixesPerAS = 1
			one, err := New(nw, p)
			if err != nil {
				t.Fatalf("%s seed %d: New(PrefixesPerAS=1): %v", v.name, seed, err)
			}
			got := digestRun(t, one, nw, fail)
			if got.summary != want.summary {
				t.Errorf("%s seed %d: explicit PrefixesPerAS=1 diverged from default\ndefault:\n%s\nexplicit:\n%s",
					v.name, seed, want.summary, got.summary)
			}
		}
	}
}

// TestMultiPrefixMatchesFullScanAllVariants is the multi-prefix twin of
// TestIncrementalMatchesFullScanAllVariants: with three prefixes per
// origin, the incremental decision process must reproduce the full-scan
// baseline exactly for every scheme variant.
func TestMultiPrefixMatchesFullScanAllVariants(t *testing.T) {
	rng := des.NewRNG(37)
	nw, err := topology.SkewedNetwork(topology.Skewed7030(30), rng)
	if err != nil {
		t.Fatal(err)
	}
	fail := topology.NearestNodes(nw, topology.GridCenter(nw), 3, nil)
	for _, v := range resetVariants() {
		for seed := int64(1); seed <= 2; seed++ {
			p := equivalenceParams(seed, v.mutate)
			p.PrefixesPerAS = 3
			inc, err := New(nw, p)
			if err != nil {
				t.Fatalf("%s seed %d: New: %v", v.name, seed, err)
			}
			got := digestRun(t, inc, nw, fail)

			p.ref |= refFullScan
			full, err := New(nw, p)
			if err != nil {
				t.Fatalf("%s seed %d: New full-scan: %v", v.name, seed, err)
			}
			want := digestRun(t, full, nw, fail)
			if got.summary != want.summary {
				t.Errorf("%s seed %d: multi-prefix incremental diverged from full scan\nfull:\n%s\nincremental:\n%s",
					v.name, seed, want.summary, got.summary)
			}
		}
	}
}

// TestMultiPrefixResetMatchesFresh pins the pooled execution path at
// k > 1: one simulator rebound across prefix dimensions (1 → 3 → 1 → 3)
// must match freshly constructed simulators run for run. The dimension
// changes force the dest-axis re-dimensioning path (adjRIBIn.resize,
// advertised column drops) that single-prefix reuse never exercises.
func TestMultiPrefixResetMatchesFresh(t *testing.T) {
	rng := des.NewRNG(41)
	nw, err := topology.SkewedNetwork(topology.Skewed7030(30), rng)
	if err != nil {
		t.Fatal(err)
	}
	fail := topology.NearestNodes(nw, topology.GridCenter(nw), 3, nil)

	reused, err := New(nw, equivalenceParams(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	for run, k := range []int{1, 3, 1, 3} {
		seed := int64(run + 1)
		p := equivalenceParams(seed, nil)
		p.PrefixesPerAS = k
		fresh, err := New(nw, p)
		if err != nil {
			t.Fatal(err)
		}
		want := digestRun(t, fresh, nw, fail)
		if err := reused.Rebind(nw, p); err != nil {
			t.Fatalf("run %d (k=%d): Rebind: %v", run, k, err)
		}
		got := digestRun(t, reused, nw, fail)
		if got.summary != want.summary {
			t.Errorf("run %d (k=%d): pooled simulator diverged from fresh\nfresh:\n%s\npooled:\n%s",
				run, k, want.summary, got.summary)
		}
	}
}

// TestMultiPrefixPathSharing pins the cross-prefix sharing the compact
// encoding exists for: the prepend memoization hands every prefix of an
// origin the same interned refs, so the path table's size tracks the
// set of distinct paths explored, not the destination count. The sets
// are not exactly equal across k — per-message randomness lets
// different prefixes explore slightly different transient paths — but
// multiplying the destination axis by 8 must not come close to
// multiplying the interned-path count: without sharing the table would
// hold one entry per stored route, k times as many.
func TestMultiPrefixPathSharing(t *testing.T) {
	rng := des.NewRNG(43)
	nw, err := topology.SkewedNetwork(topology.Skewed7030(30), rng)
	if err != nil {
		t.Fatal(err)
	}
	run := func(k int) int {
		p := equivalenceParams(5, nil)
		p.PrefixesPerAS = k
		sim, err := New(nw, p)
		if err != nil {
			t.Fatal(err)
		}
		sim.Start()
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		return sim.tab.size()
	}
	one, eight := run(1), run(8)
	if eight >= 2*one {
		t.Errorf("interned path count scaled with the prefix dimension: k=1 interned %d, k=8 interned %d (want < 2x: prefixes of one origin share paths)",
			one, eight)
	}
	if eight < one {
		t.Errorf("k=8 interned fewer paths (%d) than k=1 (%d); prefix runs are supersets of the single-prefix exploration", eight, one)
	}
}

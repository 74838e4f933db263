package topology

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"testing"

	"bgpsim/internal/des"
)

// checkSimple reports the first way nw fails to be a simple undirected
// graph of BGP sessions: a self-loop, a duplicate or out-of-range
// neighbor, an adjacency without its mirror (with the same Internal
// flag), a link that is internal without both ends in one AS or the
// other way round, or a link count that disagrees with the degrees.
func checkSimple(t *testing.T, nw *Network) {
	t.Helper()
	n, degSum := nw.NumNodes(), 0
	for v := 0; v < n; v++ {
		seen := map[int]bool{}
		for _, nb := range nw.Neighbors(v) {
			switch {
			case nb.ID < 0 || nb.ID >= n:
				t.Fatalf("node %d: neighbor %d out of range", v, nb.ID)
			case nb.ID == v:
				t.Fatalf("node %d: self-loop", v)
			case seen[nb.ID]:
				t.Fatalf("node %d: duplicate neighbor %d", v, nb.ID)
			case nb.Internal != (nw.ASOf(v) == nw.ASOf(nb.ID)):
				t.Fatalf("link %d-%d (internal %v) joins AS %d and AS %d", v, nb.ID, nb.Internal, nw.ASOf(v), nw.ASOf(nb.ID))
			}
			seen[nb.ID] = true
			mirrored := false
			for _, back := range nw.Neighbors(nb.ID) {
				if back.ID == v && back.Internal == nb.Internal {
					mirrored = true
				}
			}
			if !mirrored {
				t.Fatalf("link %d-%d has no mirror", v, nb.ID)
			}
		}
		degSum += nw.Degree(v)
	}
	if degSum != 2*nw.NumLinks() {
		t.Fatalf("degree sum %d, links %d", degSum, nw.NumLinks())
	}
}

// FuzzReadJSON decodes arbitrary bytes as a topology file. Malformed
// input must come back as an error, never a panic. A file that reads is a
// simple graph (a file may describe a disconnected one), and writing it
// is a fixed point: write, read, write gives the same bytes. The seed
// corpus is testdata/fuzz/FuzzReadJSON; a plain go test runs only those.
func FuzzReadJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		nw, rs, err := ReadJSONWith(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkSimple(t, nw)
		var first, second bytes.Buffer
		if err := nw.WriteJSONWith(&first, rs); err != nil {
			t.Fatal(err)
		}
		back, brs, err := ReadJSONWith(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-reading a written file: %v", err)
		}
		if err := back.WriteJSONWith(&second, brs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("write/read/write is not a fixed point:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}

// fuzzBuildCap keeps one FuzzSpecBuild input cheap: specs above it are
// valid but only slow, so they are skipped rather than built.
const fuzzBuildCap = 150

// FuzzSpecBuild builds a Spec decoded from arbitrary JSON with a fuzzed
// seed. Build must return an error or a network, never panic, and must
// err on a kind Kinds() does not list. A network it returns is simple
// and connected, and building it again from the same seed gives the
// same world. The relationship annotation the spec names must derive
// without panicking. The seed corpus is
// testdata/fuzz/FuzzSpecBuild; a plain go test runs only those.
func FuzzSpecBuild(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		var s Spec
		if err := json.Unmarshal(data, &s); err != nil {
			return
		}
		if s.N > fuzzBuildCap || (s.Kind == KindRealistic && (s.MaxASSize == 0 || s.MaxASSize > 8)) {
			t.Skip("valid but too large for a fuzz input")
		}
		nw, err := s.Build(des.NewRNG(seed))
		if err != nil {
			return
		}
		if !knownKind(s.Kind) {
			t.Fatalf("kind %q is not in Kinds() but built a network", s.Kind)
		}
		checkSimple(t, nw)
		if !nw.Connected() {
			t.Fatalf("built network of %d nodes is not connected", nw.NumNodes())
		}
		again, err := s.Build(des.NewRNG(seed))
		if err != nil {
			t.Fatalf("second build: %v", err)
		}
		h1, h2 := sha256.New(), sha256.New()
		worldDigest(h1, nw)
		worldDigest(h2, again)
		if !bytes.Equal(h1.Sum(nil), h2.Sum(nil)) {
			t.Fatal("same spec and seed built two different worlds")
		}
		_, _ = s.BuildRelationships(nw)
	})
}

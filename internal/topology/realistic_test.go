package topology

import (
	"bytes"
	"sort"
	"testing"

	"bgpsim/internal/des"
)

func smallRealistic() RealisticSpec {
	spec := DefaultRealistic(40)
	spec.MaxASSize = 8
	return spec
}

func TestRealisticBuilds(t *testing.T) {
	rng := des.NewRNG(1)
	nw, err := Realistic(smallRealistic(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if nw.NumASes() != 40 {
		t.Errorf("NumASes = %d, want 40", nw.NumASes())
	}
	if !nw.Connected() {
		t.Error("router-level graph not connected")
	}
}

func TestRealisticIBGPFullMesh(t *testing.T) {
	rng := des.NewRNG(2)
	nw, err := Realistic(smallRealistic(), rng)
	if err != nil {
		t.Fatal(err)
	}
	for as := 0; as < 40; as++ {
		nodes := nw.NodesInAS(as)
		for i := 0; i < len(nodes); i++ {
			for j := i + 1; j < len(nodes); j++ {
				if !nw.HasLink(nodes[i], nodes[j]) {
					t.Fatalf("AS %d routers %d,%d not IBGP-meshed", as, nodes[i], nodes[j])
				}
			}
		}
	}
}

func TestRealisticInternalExternalFlags(t *testing.T) {
	rng := des.NewRNG(3)
	nw, err := Realistic(smallRealistic(), rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range nw.Links() {
		sameAS := nw.ASOf(l.A) == nw.ASOf(l.B)
		if l.Internal != sameAS {
			t.Fatalf("link %d-%d internal=%v but sameAS=%v", l.A, l.B, l.Internal, sameAS)
		}
	}
}

func TestRealisticSizeDegreeCorrelation(t *testing.T) {
	rng := des.NewRNG(4)
	spec := smallRealistic()
	nw, err := Realistic(spec, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Collect (size, external degree) per AS; the largest AS must have the
	// highest inter-AS degree (perfect correlation by construction).
	type asInfo struct{ size, extDeg int }
	infos := make([]asInfo, 0, spec.NumAS)
	for as := 0; as < spec.NumAS; as++ {
		nodes := nw.NodesInAS(as)
		ext := 0
		for _, id := range nodes {
			ext += nw.ExternalDegree(id)
		}
		infos = append(infos, asInfo{size: len(nodes), extDeg: ext})
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].size > infos[j].size })
	// Spearman-ish check: the top-quartile ASes by size should have a higher
	// mean external degree than the bottom quartile.
	q := len(infos) / 4
	topSum, botSum := 0, 0
	for i := 0; i < q; i++ {
		topSum += infos[i].extDeg
		botSum += infos[len(infos)-1-i].extDeg
	}
	if topSum <= botSum {
		t.Errorf("largest ASes not better connected: top quartile ext degree %d <= bottom %d", topSum, botSum)
	}
}

func TestRealisticGeographicExtentGrowsWithSize(t *testing.T) {
	rng := des.NewRNG(5)
	spec := smallRealistic()
	nw, err := Realistic(spec, rng)
	if err != nil {
		t.Fatal(err)
	}
	// The largest AS should have a larger bounding box than a singleton.
	extent := func(as int) float64 {
		nodes := nw.NodesInAS(as)
		if len(nodes) < 2 {
			return 0
		}
		minX, maxX := nw.Grid(), 0.0
		for _, id := range nodes {
			p := nw.Node(id).Pos
			if p.X < minX {
				minX = p.X
			}
			if p.X > maxX {
				maxX = p.X
			}
		}
		return maxX - minX
	}
	largest, largestSize := 0, 0
	for as := 0; as < spec.NumAS; as++ {
		if n := len(nw.NodesInAS(as)); n > largestSize {
			largest, largestSize = as, n
		}
	}
	if largestSize > 2 && extent(largest) == 0 {
		t.Error("multi-router AS has zero geographic extent")
	}
}

func TestRealisticValidation(t *testing.T) {
	rng := des.NewRNG(1)
	bad := []RealisticSpec{
		{NumAS: 1, AvgDegree: 3.4, MaxDegree: 10, MinASSize: 1, MaxASSize: 5, SizeAlpha: 1},
		{NumAS: 40, AvgDegree: 3.4, MaxDegree: 50, MinASSize: 1, MaxASSize: 5, SizeAlpha: 1},
		{NumAS: 40, AvgDegree: 0.5, MaxDegree: 10, MinASSize: 1, MaxASSize: 5, SizeAlpha: 1},
		{NumAS: 40, AvgDegree: 3.4, MaxDegree: 10, MinASSize: 0, MaxASSize: 5, SizeAlpha: 1},
		{NumAS: 40, AvgDegree: 3.4, MaxDegree: 10, MinASSize: 6, MaxASSize: 5, SizeAlpha: 1},
		{NumAS: 40, AvgDegree: 3.4, MaxDegree: 10, MinASSize: 1, MaxASSize: 5, SizeAlpha: 0},
	}
	for i, s := range bad {
		if _, err := Realistic(s, rng); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	rng := des.NewRNG(6)
	nw, err := Realistic(smallRealistic(), rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := nw.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != nw.NumNodes() || back.NumLinks() != nw.NumLinks() {
		t.Fatalf("round trip changed counts: %d/%d -> %d/%d",
			nw.NumNodes(), nw.NumLinks(), back.NumNodes(), back.NumLinks())
	}
	for i := 0; i < nw.NumNodes(); i++ {
		if back.ASOf(i) != nw.ASOf(i) {
			t.Fatalf("node %d AS changed", i)
		}
		if back.Node(i).Pos != nw.Node(i).Pos {
			t.Fatalf("node %d position changed", i)
		}
	}
	for _, l := range nw.Links() {
		if !back.HasLink(l.A, l.B) {
			t.Fatalf("link %d-%d lost", l.A, l.B)
		}
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	for name, file := range map[string]string{
		"not json": "{not json",
		"internal link across ASes": `{"nodes":[{"id":0,"as":0},{"id":1,"as":1}],
			"links":[{"a":0,"b":1,"internal":true}]}`,
		"external link within an AS": `{"nodes":[{"id":0,"as":5},{"id":1,"as":5}],
			"links":[{"a":0,"b":1,"internal":false}]}`,
	} {
		if _, err := ReadJSON(bytes.NewBufferString(file)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

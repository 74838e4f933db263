package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestKindsListing(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-kinds"}, &out); err != nil {
		t.Fatal(err)
	}
	want := "skewed-70-30\nskewed-50-50\nskewed-85-15\nskewed-50-50-dense\ninternet-like\nrealistic\n"
	if out.String() != want {
		t.Errorf("kinds output:\n%s\nwant:\n%s", out.String(), want)
	}
}

func TestGenerateWithStats(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-kind", "skewed-70-30", "-n", "60", "-seed", "3", "-stats"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"nodes          60", "connected      true", "assortativity", "degree histogram:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stats output missing %q:\n%s", want, out.String())
		}
	}
}

func TestGenerateJSONToStdout(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-kind", "skewed-70-30", "-n", "30"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"nodes"`) || !strings.Contains(out.String(), `"links"`) {
		t.Error("stdout JSON missing sections")
	}
}

func TestWriteAndReadBack(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "topo.json")
	var out bytes.Buffer
	if err := run([]string{"-kind", "internet-like", "-n", "40", "-o", path}, &out); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-in", path, "-stats"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "nodes          40") {
		t.Errorf("read-back stats wrong:\n%s", out.String())
	}
}

func TestRelationshipAnnotationRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "topo.json")
	var out bytes.Buffer
	if err := run([]string{"-kind", "internet-like", "-n", "40", "-rel", "infer", "-stats", "-o", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "relationships  ") {
		t.Errorf("stats missing relationship summary:\n%s", out.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"relationships"`) {
		t.Error("written JSON carries no relationship annotations")
	}
	// Reading the annotated file back must surface the saved annotations
	// without re-deriving them.
	firstStats := out.String()[strings.Index(out.String(), "relationships  "):]
	out.Reset()
	if err := run([]string{"-in", path, "-stats"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), strings.TrimSpace(strings.SplitN(firstStats, "\n", 2)[0])) {
		t.Errorf("read-back relationship summary differs:\n%s", out.String())
	}
}

func TestBadRelModeErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-kind", "skewed-70-30", "-n", "30", "-rel", "friend"}, &out); err == nil {
		t.Error("unknown relationship mode accepted")
	}
}

// TestBadKindErrors includes glp, a family the tool once built: a
// deleted kind is refused by name, not built as something else.
func TestBadKindErrors(t *testing.T) {
	for _, kind := range []string{"nonsense", "glp"} {
		var out bytes.Buffer
		err := run([]string{"-kind", kind, "-n", "10"}, &out)
		if err == nil || !strings.Contains(err.Error(), "unknown kind") {
			t.Errorf("-kind %s: err = %v, want unknown kind", kind, err)
		}
	}
}

func TestMissingInputFileErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-in", "/does/not/exist.json"}, &out); err == nil {
		t.Error("missing input accepted")
	}
}

package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bgpsim"
)

func TestParseSchemeVariants(t *testing.T) {
	cases := []struct {
		in       string
		wantName string
	}{
		{"mrai=0.5", "MRAI=0.5s"},
		{"mrai=30", "MRAI=30s"},
		{"dynamic", "dynamic"},
		{"batch", "batch,MRAI=0.5s"},
		{"batch=2.25", "batch,MRAI=2.25s"},
		{"batch+dynamic", "batch+dynamic"},
		{"oracle", "oracle"},
		{"mrai=9223372036", "MRAI=9.223e+09s"}, // the largest whole-second Duration
	}
	for _, c := range cases {
		got, err := bgpsim.ParseScheme(c.in)
		if err != nil {
			t.Errorf("bgpsim.ParseScheme(%q): %v", c.in, err)
			continue
		}
		if got.Name != c.wantName {
			t.Errorf("bgpsim.ParseScheme(%q).Name = %q, want %q", c.in, got.Name, c.wantName)
		}
		if got.Apply == nil {
			t.Errorf("bgpsim.ParseScheme(%q) has nil Apply", c.in)
		}
	}
}

func TestParseSchemeDegree(t *testing.T) {
	got, err := bgpsim.ParseScheme("degree=0.5,2.25")
	if err != nil {
		t.Fatal(err)
	}
	if got.Apply == nil {
		t.Fatal("nil Apply")
	}
}

func TestParseSchemeErrors(t *testing.T) {
	for _, in := range []string{"", "nope", "mrai=", "mrai=abc", "mrai=-1",
		"degree=1", "degree=a,b", "batch=x",
		// Non-finite, or past the largest Duration.
		"mrai=NaN", "mrai=Inf", "mrai=-Inf", "mrai=1e300", "mrai=1e400", "mrai=9223372037",
		"batch=NaN", "batch=1e20", "degree=NaN,1", "degree=1,1e300"} {
		if _, err := bgpsim.ParseScheme(in); err == nil {
			t.Errorf("bgpsim.ParseScheme(%q) accepted", in)
		}
	}
}

// runToString drives run() with its output captured in a temp file.
func runToString(t *testing.T, args []string) string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "out"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := run(args, f); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	b, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestChurnCLIDeterministic(t *testing.T) {
	args := []string{"-nodes", "30", "-scheme", "mrai=0.5", "-trials", "2",
		"-churn", "flap-cycle", "-churn-cycles", "2", "-churn-period", "20s",
		"-churn-hold-min", "2s", "-churn-hold-max", "5s"}
	first := runToString(t, args)
	if first == "" {
		t.Fatal("churn run printed nothing")
	}
	if second := runToString(t, append(args, "-workers", "4")); second != first {
		t.Errorf("churn output depends on worker count:\n--- workers=default ---\n%s--- workers=4 ---\n%s", first, second)
	}
}

// TestChurnCLIMatchesGolden pins a churn program's metric stream: the
// recipe CI runs prints exactly results/churn/poisson-link-flap.txt.
func TestChurnCLIMatchesGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "results", "churn", "poisson-link-flap.txt"))
	if err != nil {
		t.Fatal(err)
	}
	got := runToString(t, []string{"-nodes", "30", "-scheme", "mrai=0.5", "-trials", "2",
		"-churn", "poisson-link-flap", "-churn-rate", "0.1", "-churn-duration", "40s",
		"-churn-hold-min", "4s", "-churn-hold-max", "8s"})
	if got != string(want) {
		t.Errorf("churn stream differs from results/churn/poisson-link-flap.txt:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestChurnCLIRejectsBadFlags(t *testing.T) {
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	bad := [][]string{
		{"-churn", "no-such-kind"},
		{"-churn", "poisson-link-flap", "-churn-rate", "-1"},
		{"-churn", "flap-cycle", "-policy"},
	}
	for _, args := range bad {
		if err := run(args, null); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

// TestShardConcurrentNeedsShards: -shard-concurrent once needed
// -shards >= 2. The sharded engine was removed, and both flags with it,
// so naming either is an error, not a silent single-engine run.
func TestShardConcurrentNeedsShards(t *testing.T) {
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	for _, args := range [][]string{{"-nodes", "30", "-shards", "2"}, {"-nodes", "30", "-shard-concurrent"}} {
		if err := run(args, null); err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Errorf("run(%v) = %v, want an unknown-flag error", args, err)
		}
	}
}

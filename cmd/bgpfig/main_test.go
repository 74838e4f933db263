package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestListExperiments(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownFigureErrors(t *testing.T) {
	if err := run([]string{"-fig", "99"}); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestRunOneFigureQuickWithOutput(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{"-fig", "1", "-quick", "-nodes", "24", "-trials", "1", "-q", "-o", dir, "-json"})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Fig 1") {
		t.Errorf("figure file content wrong:\n%s", data)
	}
	jsonData, err := os.ReadFile(filepath.Join(dir, "fig1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(jsonData), `"series"`) {
		t.Errorf("json figure missing series:\n%s", jsonData)
	}
}

func TestBadFlagErrors(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestShardConcurrentNeedsShards: -shard-concurrent once needed
// -shards >= 2. The sharded engine was removed, and both flags with it,
// so naming either is an error, not a silent single-engine run.
func TestShardConcurrentNeedsShards(t *testing.T) {
	for _, args := range [][]string{{"-list", "-shards", "2"}, {"-list", "-shard-concurrent"}} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Errorf("run(%v) = %v, want an unknown-flag error", args, err)
		}
	}
}

// TestConnectIsNotAWorker: bgpwork is the one worker binary, so bgpfig
// has no -connect and naming it is an error, not a figure run.
func TestConnectIsNotAWorker(t *testing.T) {
	err := run([]string{"-list", "-connect", "127.0.0.1:1"})
	if err == nil || !strings.Contains(err.Error(), "not defined") {
		t.Errorf("run(-connect) = %v, want an unknown-flag error", err)
	}
}

// TestProfileWriteErrorReachesRun: a -memprofile that cannot be written
// fails the run instead of exiting 0 with no file.
func TestProfileWriteErrorReachesRun(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no-such-dir", "mem.out")
	err := run([]string{"-list", "-memprofile", bad})
	if err == nil || !strings.Contains(err.Error(), "profiling:") {
		t.Errorf("run = %v, want a profiling: error", err)
	}
}

func TestWorkersFlagProducesSameFigure(t *testing.T) {
	serial, parallel := t.TempDir(), t.TempDir()
	base := []string{"-fig", "1", "-quick", "-nodes", "24", "-trials", "1", "-q"}
	if err := run(append(base, "-workers", "1", "-o", serial)); err != nil {
		t.Fatal(err)
	}
	if err := run(append(base, "-workers", "8", "-o", parallel)); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(filepath.Join(serial, "fig1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(parallel, "fig1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("-workers changed figure bytes:\n--- 1 ---\n%s--- 8 ---\n%s", a, b)
	}
}

func TestProgressLineMonotonicSerialized(t *testing.T) {
	var buf strings.Builder
	p := newProgressLine(&buf)
	p.update(1, 3)
	p.update(1, 3) // duplicate: ignored
	p.update(2, 3)
	p.update(1, 3) // stale out-of-order update: ignored
	p.update(3, 3)
	got := buf.String()
	want := "\r   1/3 cells\r   2/3 cells\r   3/3 cells\n"
	if got != want {
		t.Errorf("progress output = %q, want %q", got, want)
	}
}

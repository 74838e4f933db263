package profiling

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestStartStopWriteProfiles: the flags reach Config, and a Start/Stop
// pair leaves a non-empty CPU profile and a non-empty allocs profile.
func TestStartStopWriteProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	var c Config
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	c.AddFlags(fs)
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		if info, err := os.Stat(path); err != nil || info.Size() == 0 {
			t.Errorf("%s: missing or empty profile (err=%v)", filepath.Base(path), err)
		}
	}
}

// TestStopReturnsMemProfileError: a -memprofile path that cannot be
// created is an error from Stop, and the CPU profile is still finished.
func TestStopReturnsMemProfileError(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	c := Config{CPUPath: cpu, MemPath: filepath.Join(dir, "no-such-dir", "mem.out")}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	err := c.Stop()
	if err == nil || !strings.HasPrefix(err.Error(), "profiling: ") || !strings.Contains(err.Error(), "no-such-dir") {
		t.Fatalf("Stop = %v, want a profiling: error naming the path", err)
	}
	if info, serr := os.Stat(cpu); serr != nil || info.Size() == 0 {
		t.Errorf("CPU profile not finished after the heap profile failed (err=%v)", serr)
	}
}

// TestStartReturnsCPUProfileError: an uncreatable -cpuprofile path
// fails at Start, before the run.
func TestStartReturnsCPUProfileError(t *testing.T) {
	c := Config{CPUPath: filepath.Join(t.TempDir(), "no-such-dir", "cpu.out")}
	if err := c.Start(); err == nil {
		c.Stop()
		t.Fatal("Start accepted an uncreatable path")
	}
}

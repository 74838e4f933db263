// Package profiling wires Go's pprof profilers into the command-line
// tools. Every cmd/ binary exposes -cpuprofile and -memprofile flags
// through AddFlags/Stop so a paper-scale run can be profiled without a
// test harness:
//
//	bgpfig -fig 3 -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof -top cpu.out
package profiling

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Config holds the profile destinations parsed from the command line.
type Config struct {
	// CPUPath receives a CPU profile covering Start..Stop ("" = disabled).
	CPUPath string
	// MemPath receives a heap profile written at Stop ("" = disabled).
	MemPath string

	cpuFile *os.File
}

// AddFlags registers the profiling flags on fs.
func (c *Config) AddFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.CPUPath, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&c.MemPath, "memprofile", "", "write a heap profile to this file on exit")
}

// Start begins CPU profiling if requested. It must be paired with Stop.
func (c *Config) Start() error {
	if c.CPUPath == "" {
		return nil
	}
	f, err := os.Create(c.CPUPath)
	if err != nil {
		return fmt.Errorf("profiling: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("profiling: %w", err)
	}
	c.cpuFile = f
	return nil
}

// Stop ends CPU profiling and writes the heap profile, if either was
// requested, and returns every error met doing so. Safe to call when
// Start was never called or profiling is disabled.
func (c *Config) Stop() error {
	var cpuErr, memErr error
	if c.cpuFile != nil {
		pprof.StopCPUProfile()
		cpuErr = c.cpuFile.Close()
		c.cpuFile = nil
	}
	if c.MemPath != "" {
		memErr = writeAllocs(c.MemPath)
	}
	if err := errors.Join(cpuErr, memErr); err != nil {
		return fmt.Errorf("profiling: %w", err)
	}
	return nil
}

// writeAllocs writes the "allocs" profile (live heap plus totals) to path.
func writeAllocs(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // capture the settled live set, not transient garbage
	err = pprof.Lookup("allocs").WriteTo(f, 0)
	return errors.Join(err, f.Close())
}

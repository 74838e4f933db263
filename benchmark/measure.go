package main

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"bgpsim/internal/stats"
)

// quartileSpread is the distance between the first and third quartile of
// vs as a share of its median, with the quartiles placed exactly as
// Python's statistics.quantiles(vs, n=4) places them (the "exclusive"
// method), because that is the figure the benchmark contract gates on.
func quartileSpread(vs []float64) float64 {
	n := len(vs)
	med := stats.Median(vs)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(k int) float64 { // k-th of 4 cut points, exclusive method
		pos := float64(k*(n+1))/4 - 1
		lo := int(math.Floor(pos))
		if lo < 0 {
			lo = 0
		}
		if lo > n-2 {
			lo = n - 2
		}
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	return math.Abs(at(3)-at(1)) / math.Abs(med)
}

func sum(vs []float64) float64 {
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t
}

// ratio is a/b with 0 for an empty base, so a workload that does not
// exercise a counter reports 0 instead of NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
// It is 0 where /proc is unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := bytes.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(string(f[0]), 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// region is the host cost of one timed region.
type region struct {
	wall, cpu      float64 // seconds
	allocBytes     float64
	mallocs        float64
	gcCycles       float64
	gcPauseSeconds float64
}

// timed runs fn as one timed region: a forced collection first so every
// region starts from the same heap state, then wall clock, process CPU
// time and the allocator's counters around the call.
func timed(fn func() error) (region, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - c0
	runtime.ReadMemStats(&m1)
	return region{
		wall:           wall,
		cpu:            cpu,
		allocBytes:     float64(m1.TotalAlloc - m0.TotalAlloc),
		mallocs:        float64(m1.Mallocs - m0.Mallocs),
		gcCycles:       float64(m1.NumGC - m0.NumGC),
		gcPauseSeconds: float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9,
	}, err
}

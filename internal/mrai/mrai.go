// Package mrai implements the Minimum Route Advertisement Interval
// selection strategies studied in the paper: constant (the classic
// per-peer MRAI), degree-dependent (Section 4.2), and the dynamic
// load-adaptive ladder (Section 4.3) with its three overload signals
// (unfinished work, CPU utilization, message rate).
package mrai

import (
	"fmt"
	"time"
)

// Snapshot is the router-load view a Policy decides from. The BGP router
// builds one each time a per-peer timer is restarted; per the paper, MRAI
// changes take effect only at timer restart ("we do not modify the values
// of the running timers").
type Snapshot struct {
	// Now is the current simulated time.
	Now time.Duration
	// Degree is the router's total session count.
	Degree int
	// QueueLen is the number of update messages waiting to be processed.
	QueueLen int
	// UnfinishedWork is QueueLen multiplied by the mean per-update
	// processing delay — the paper's primary overload signal.
	UnfinishedWork time.Duration
	// Utilization is the fraction of time the router CPU was busy since
	// the previous snapshot, in [0,1].
	Utilization float64
	// MsgRate is the update arrival rate (messages/second) since the
	// previous snapshot.
	MsgRate float64
}

// Policy selects the MRAI each time a router restarts a per-peer timer.
// Implementations may carry per-router state (the dynamic ladder's current
// level); a fresh Policy is created for every router via a Factory.
type Policy interface {
	MRAI(s Snapshot) time.Duration
	// Rewind returns the policy in place to the state its Factory built
	// it in. The simulator rewinds every live router's policy each time a
	// measurement window opens — once per perturbation of a churn program
	// — which calling the Factory again would turn into an allocation per
	// router per window. A policy without state does nothing.
	Rewind()
}

// Factory builds one Policy instance per router. degree is the router's
// session count, which the degree-dependent scheme keys on.
type Factory func(degree int) Policy

// Constant returns the fixed-MRAI policy used throughout the Internet
// today (default 30s; the paper sweeps 0.25–4s).
func Constant(d time.Duration) Factory {
	// Boxed once here, not per call: the factory runs per router per trial.
	var p Policy = constantPolicy(d)
	return func(int) Policy { return p }
}

type constantPolicy time.Duration

func (c constantPolicy) MRAI(Snapshot) time.Duration { return time.Duration(c) }

// Rewind is a no-op: the policy has no state.
func (constantPolicy) Rewind() {}

// DegreeDependent assigns low-degree routers one constant MRAI and
// high-degree routers another (Section 4.2: "low 0.5, high 2.25").
// Routers with degree >= threshold count as high degree.
func DegreeDependent(threshold int, low, high time.Duration) Factory {
	var lo, hi Policy = constantPolicy(low), constantPolicy(high)
	return func(degree int) Policy {
		if degree >= threshold {
			return hi
		}
		return lo
	}
}

// Ladder is the paper's dynamic MRAI scheme: a small set of increasing
// MRAI levels plus two thresholds on an overload signal. When the signal
// exceeds UpTh the router climbs one level; below DownTh it descends one.
type Ladder struct {
	// Levels are the selectable MRAI values in increasing order
	// (paper: 0.5s, 1.25s, 2.25s for 120-node 70-30 networks).
	Levels []time.Duration
	// UpTh and DownTh are the overload/underload thresholds
	// (paper defaults: 0.65s and 0.05s of unfinished work).
	UpTh, DownTh time.Duration
	// Signal selects which Snapshot field drives the ladder.
	Signal Signal
	// UpUtil/DownUtil and UpRate/DownRate are the thresholds for the
	// utilization and message-rate signals respectively.
	UpUtil, DownUtil float64
	UpRate, DownRate float64
}

// Signal selects the overload indicator for a Ladder.
type Signal int

// Overload signals (Section 4.3). SignalWork is the paper's main scheme;
// the other two are the alternates it reports trying.
const (
	SignalWork Signal = iota + 1
	SignalUtilization
	SignalMsgRate
)

// String returns the signal name.
func (s Signal) String() string {
	switch s {
	case SignalWork:
		return "work"
	case SignalUtilization:
		return "utilization"
	case SignalMsgRate:
		return "msgrate"
	default:
		return fmt.Sprintf("signal(%d)", int(s))
	}
}

// PaperLevels are the dynamic-MRAI levels the paper selects for 120-node
// 70-30 topologies.
var PaperLevels = []time.Duration{
	500 * time.Millisecond,
	1250 * time.Millisecond,
	2250 * time.Millisecond,
}

// PaperUpTh and PaperDownTh are the thresholds used for Fig 7.
const (
	PaperUpTh   = 650 * time.Millisecond
	PaperDownTh = 50 * time.Millisecond
)

// Dynamic returns the paper's unfinished-work ladder with the given
// levels and thresholds.
func Dynamic(levels []time.Duration, upTh, downTh time.Duration) Factory {
	l := Ladder{Levels: levels, UpTh: upTh, DownTh: downTh, Signal: SignalWork}
	return l.Factory()
}

// PaperDynamic returns the exact Fig 7 configuration.
func PaperDynamic() Factory {
	return Dynamic(PaperLevels, PaperUpTh, PaperDownTh)
}

// DynamicUtilization returns the CPU-utilization alternate: climb when
// utilization exceeds up, descend below down.
func DynamicUtilization(levels []time.Duration, up, down float64) Factory {
	l := Ladder{Levels: levels, Signal: SignalUtilization, UpUtil: up, DownUtil: down}
	return l.Factory()
}

// DynamicMsgRate returns the message-count alternate: climb when the
// arrival rate exceeds up msgs/s, descend below down.
func DynamicMsgRate(levels []time.Duration, up, down float64) Factory {
	l := Ladder{Levels: levels, Signal: SignalMsgRate, UpRate: up, DownRate: down}
	return l.Factory()
}

// Factory returns a per-router factory for a valid ladder (see
// Validate). The factory keeps one private copy of the configuration,
// which every policy it builds reads and none writes.
func (l Ladder) Factory() Factory {
	if err := l.Validate(); err != nil {
		// Invariant: ladders are program constants, and the one built from
		// a caller's values (bgpsim.CustomDynamicMRAI) is validated first.
		panic(err)
	}
	cfg := l
	cfg.Levels = append([]time.Duration(nil), l.Levels...)
	return func(int) Policy { return &ladderPolicy{cfg: &cfg} }
}

// Validate reports why l cannot drive a router: no levels, levels not
// increasing, a down threshold above the up threshold, or an unknown
// signal.
func (l Ladder) Validate() error {
	if len(l.Levels) == 0 {
		return fmt.Errorf("mrai: ladder needs at least one level")
	}
	for i := 1; i < len(l.Levels); i++ {
		if l.Levels[i] <= l.Levels[i-1] {
			return fmt.Errorf("mrai: ladder levels must increase: %v", l.Levels)
		}
	}
	switch l.Signal {
	case SignalWork:
		if l.DownTh > l.UpTh {
			return fmt.Errorf("mrai: downTh %v > upTh %v", l.DownTh, l.UpTh)
		}
	case SignalUtilization:
		if l.DownUtil > l.UpUtil {
			return fmt.Errorf("mrai: downUtil %v > upUtil %v", l.DownUtil, l.UpUtil)
		}
	case SignalMsgRate:
		if l.DownRate > l.UpRate {
			return fmt.Errorf("mrai: downRate %v > upRate %v", l.DownRate, l.UpRate)
		}
	default:
		return fmt.Errorf("mrai: unknown signal %v", l.Signal)
	}
	return nil
}

// ladderPolicy carries the per-router level state; cfg is shared by
// every policy of one Factory and read-only.
type ladderPolicy struct {
	cfg   *Ladder
	level int
}

var _ Policy = (*ladderPolicy)(nil)

// Rewind returns the ladder to its bottom level.
func (p *ladderPolicy) Rewind() { p.level = 0 }

// MRAI adjusts the level by at most one step and returns the new MRAI.
func (p *ladderPolicy) MRAI(s Snapshot) time.Duration {
	up, down := false, false
	switch p.cfg.Signal {
	case SignalUtilization:
		up = s.Utilization > p.cfg.UpUtil
		down = s.Utilization < p.cfg.DownUtil
	case SignalMsgRate:
		up = s.MsgRate > p.cfg.UpRate
		down = s.MsgRate < p.cfg.DownRate
	default: // SignalWork
		up = s.UnfinishedWork > p.cfg.UpTh
		down = s.UnfinishedWork < p.cfg.DownTh
	}
	switch {
	case up && p.level < len(p.cfg.Levels)-1:
		p.level++
	case down && p.level > 0:
		p.level--
	}
	return p.cfg.Levels[p.level]
}

// Level exposes the current ladder position for tests and metrics.
func (p *ladderPolicy) Level() int { return p.level }

// Leveler is implemented by policies with an observable discrete level.
type Leveler interface {
	Level() int
}

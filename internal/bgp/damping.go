package bgp

import (
	"fmt"
	"math"
	"time"

	"bgpsim/internal/des"
)

// DampingConfig enables RFC 2439 route-flap damping. Each (destination,
// peer) route accumulates a penalty on every change; while the decayed
// penalty exceeds SuppressThreshold the route is unusable (and
// unadvertisable); once it decays below ReuseThreshold it returns.
//
// Damping exists to shield routers from persistent flapping, but it is
// well known (and reproducible here) to slow re-convergence after large
// failures: path exploration looks like flapping, so valid backup routes
// get suppressed exactly when they are needed.
type DampingConfig struct {
	// Penalty is added per route change (RFC suggests 1000).
	Penalty float64
	// SuppressThreshold starts suppression (RFC suggests 2000).
	SuppressThreshold float64
	// ReuseThreshold ends suppression (RFC suggests 750).
	ReuseThreshold float64
	// HalfLife is the exponential decay half-life. Internet deployments
	// use minutes; simulations at this paper's timescale use seconds.
	HalfLife time.Duration
	// Ceiling caps the penalty so suppression always ends (RFC 2439's
	// maximum-suppress behaviour). Zero means 4x SuppressThreshold.
	Ceiling float64
}

// DefaultDamping returns RFC 2439-flavored parameters scaled to the
// simulation timescale (half-life in seconds rather than minutes).
func DefaultDamping() *DampingConfig {
	return &DampingConfig{
		Penalty:           1000,
		SuppressThreshold: 2000,
		ReuseThreshold:    750,
		HalfLife:          10 * time.Second,
	}
}

// Validate checks the configuration.
func (c *DampingConfig) Validate() error {
	switch {
	case c.Penalty <= 0:
		return fmt.Errorf("bgp: damping penalty %v", c.Penalty)
	case c.ReuseThreshold <= 0 || c.SuppressThreshold <= c.ReuseThreshold:
		return fmt.Errorf("bgp: damping thresholds suppress=%v reuse=%v",
			c.SuppressThreshold, c.ReuseThreshold)
	case c.HalfLife <= 0:
		return fmt.Errorf("bgp: damping half-life %v", c.HalfLife)
	case c.Ceiling < 0:
		return fmt.Errorf("bgp: damping ceiling %v", c.Ceiling)
	}
	return nil
}

func (c *DampingConfig) ceiling() float64 {
	if c.Ceiling > 0 {
		return c.Ceiling
	}
	return 4 * c.SuppressThreshold
}

// dampEntry tracks one (destination, peer) flap history.
type dampEntry struct {
	penalty    float64
	lastDecay  des.Time
	suppressed bool
	reuseEv    *des.Event
}

// damper holds a router's damping state.
type damper struct {
	cfg     *DampingConfig
	entries map[ASN]map[NodeID]*dampEntry
}

func newDamper(cfg *DampingConfig) *damper {
	return &damper{cfg: cfg, entries: make(map[ASN]map[NodeID]*dampEntry)}
}

// entry returns (allocating) the state for (dest, from).
func (d *damper) entry(dest ASN, from NodeID) *dampEntry {
	m, ok := d.entries[dest]
	if !ok {
		m = make(map[NodeID]*dampEntry)
		d.entries[dest] = m
	}
	e, ok := m[from]
	if !ok {
		e = &dampEntry{}
		m[from] = e
	}
	return e
}

// decay brings the entry's penalty current.
func (e *dampEntry) decay(now des.Time, cfg *DampingConfig) {
	if e.lastDecay >= now || e.penalty == 0 {
		e.lastDecay = now
		return
	}
	dt := float64(now-e.lastDecay) / float64(cfg.HalfLife)
	e.penalty *= math.Pow(0.5, dt)
	if e.penalty < 1 {
		e.penalty = 0
	}
	e.lastDecay = now
}

// suppressed reports whether the route (dest, from) is currently damped.
func (d *damper) isSuppressed(dest ASN, from NodeID) bool {
	m, ok := d.entries[dest]
	if !ok {
		return false
	}
	e, ok := m[from]
	return ok && e.suppressed
}

// minReuseDelay floors reuse-event re-arming. Without it, floating-point
// rounding can leave the penalty marginally above the reuse threshold
// with a computed delay of zero, re-arming the event at the same
// simulated instant forever.
const minReuseDelay = 10 * time.Millisecond

// reuseDelay returns how long until the penalty decays to the reuse
// threshold (at least minReuseDelay).
func (d *damper) reuseDelay(e *dampEntry) time.Duration {
	if e.penalty <= d.cfg.ReuseThreshold {
		return minReuseDelay
	}
	halfLives := math.Log2(e.penalty / d.cfg.ReuseThreshold)
	delay := time.Duration(halfLives * float64(d.cfg.HalfLife))
	if delay < minReuseDelay {
		delay = minReuseDelay
	}
	return delay
}

// penalize records a flap for (dest, from) at the router r and returns
// whether the route just became suppressed. It arms (or re-arms) the
// reuse event that will lift suppression.
func (r *router) penalize(dest ASN, from NodeID) bool {
	d := r.decide.damper
	now := r.now()
	e := d.entry(dest, from)
	e.decay(now, d.cfg)
	e.penalty += d.cfg.Penalty
	if ceiling := d.cfg.ceiling(); e.penalty > ceiling {
		e.penalty = ceiling
	}
	if e.penalty <= d.cfg.SuppressThreshold {
		return false
	}
	justSuppressed := !e.suppressed
	e.suppressed = true
	// (Re-)arm the reuse check for the new, larger penalty.
	r.eng.Cancel(e.reuseEv)
	delay := d.reuseDelay(e)
	e.reuseEv = r.eng.ScheduleAt(now+delay, func() { r.reuseCheck(dest, from) })
	return justSuppressed
}

// reuseCheck lifts suppression once the penalty has decayed enough,
// re-running the decision process so the route becomes eligible again.
func (r *router) reuseCheck(dest ASN, from NodeID) {
	d := r.decide.damper
	if !r.alive || d == nil {
		return
	}
	e := d.entry(dest, from)
	e.reuseEv = nil
	if !e.suppressed {
		return
	}
	now := r.now()
	e.decay(now, d.cfg)
	// The epsilon absorbs floating-point residue from the decay; without
	// it a penalty equal to the threshold up to rounding would re-arm
	// indefinitely.
	if e.penalty > d.cfg.ReuseThreshold*(1+1e-9) {
		// Not yet (extra penalties arrived); re-arm.
		e.reuseEv = r.eng.ScheduleAt(now+d.reuseDelay(e), func() { r.reuseCheck(dest, from) })
		return
	}
	e.suppressed = false
	if r.runDecision(dest) {
		r.advertise(dest)
	}
}

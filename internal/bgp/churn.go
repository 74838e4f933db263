package bgp

import (
	"fmt"

	"bgpsim/internal/des"
)

// This file holds the control-plane hooks the churn subsystem
// (internal/churn) drives the simulator through: generic control-event
// scheduling, explicit measurement-window management, link recovery, and
// the start every trial shares with ConvergeAndFail (ConvergeInitial).
// All of them reuse the exact machinery of the batch-failure flow —
// ScheduleFailure/ScheduleRecovery, normalizeWindow — so a churn
// program composes with prefixes and the installed start by
// construction.

// ScheduleControl schedules fn as a global control event at absolute
// time at, on the engine failures and recoveries run on. Control events
// at equal timestamps execute in the order they were scheduled, which is what
// lets a churn program order "capture previous window" before "open the
// next" at the same instant.
func (s *Simulator) ScheduleControl(at des.Time, fn func()) {
	s.eng.ScheduleAt(at, fn)
}

// OpenMeasurementWindow opens the metrics measurement window at time at
// and normalizes away any pre-window residue (see normalizeWindow) —
// the same sequence ScheduleFailure performs implicitly. It must be
// called from inside a control event executing at time at (use
// ScheduleControl); churn programs call it before perturbations that do
// not open a window themselves, such as recoveries.
func (s *Simulator) OpenMeasurementWindow(at des.Time) {
	s.col.OpenWindow(at)
	s.normalizeWindow(at)
}

// ScheduleLinkRecovery re-establishes the sessions on the given links at
// time at — the inverse of ScheduleLinkFailure. Each link is a pair of
// node IDs; links with a dead endpoint, unknown links, and sessions
// already up are ignored (session state is idempotent, so a recovery
// racing a node failure in a churn program degrades to a no-op rather
// than an error). Both ends re-advertise their full Loc-RIB over the
// restored session, the standard session-establishment behaviour. No
// measurement window is opened; churn programs pair this with
// OpenMeasurementWindow when the recovery starts a window of its own.
func (s *Simulator) ScheduleLinkRecovery(at des.Time, links [][2]int) {
	restored := append([][2]int(nil), links...)
	s.eng.ScheduleAt(at, func() {
		for _, l := range restored {
			a, b := l[0], l[1]
			if a < 0 || b < 0 || a >= len(s.routers) || b >= len(s.routers) {
				continue
			}
			ra, rb := s.routers[a], s.routers[b]
			if !ra.alive || !rb.alive {
				continue
			}
			slotAB, ok := findPeer(ra.peers, b)
			if !ok {
				continue
			}
			ra.peerUp(slotAB)
			rb.peerUp(int(ra.peers[slotAB].Back))
		}
	})
}

// ConvergeInitial brings a freshly rebound simulator to its initial
// converged state by installing the snapshot fixpoint (warmStart): no
// event runs, Now() stays at zero, and the simulator is ready for
// failure injection — ConvergeAndFail and churn programs both start
// here. Event-driven initial convergence (Start, then Run to
// quiescence) survives only as the refColdStart reference the tests
// compare the install against.
func (s *Simulator) ConvergeInitial() error {
	if s.params.ref&refColdStart != 0 {
		s.Start()
		if err := s.Run(); err != nil {
			return fmt.Errorf("initial convergence: %w", err)
		}
		return nil
	}
	if err := s.warmStart(); err != nil {
		return fmt.Errorf("initial convergence: %w", err)
	}
	return nil
}

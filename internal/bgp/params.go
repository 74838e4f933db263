package bgp

import (
	"fmt"
	"time"

	"bgpsim/internal/mrai"
	"bgpsim/internal/topology"
	"bgpsim/internal/trace"
)

// QueueDiscipline selects how a router's input queue feeds its CPU.
type QueueDiscipline int

// Queue disciplines.
const (
	// QueueFIFO is default BGP: updates are processed strictly in arrival
	// order, one at a time.
	QueueFIFO QueueDiscipline = iota + 1
	// QueueBatched is the paper's scheme (Section 4.4): a logical queue
	// per destination; all pending updates for a destination are processed
	// together and stale same-neighbor updates are deleted unprocessed.
	QueueBatched
	// QueueRouterBatch models the "another form of batching" the paper
	// contrasts with (Section 4.4): one TCP buffer is drained per peer and
	// processed as a batch, deduplicating per destination only within that
	// per-peer batch.
	QueueRouterBatch
)

// String returns the discipline name.
func (q QueueDiscipline) String() string {
	switch q {
	case QueueFIFO:
		return "fifo"
	case QueueBatched:
		return "batched"
	case QueueRouterBatch:
		return "router-batch"
	default:
		return fmt.Sprintf("queue(%d)", int(q))
	}
}

// Params configures one BGP simulation. The zero value is not valid; use
// DefaultParams and override.
type Params struct {
	// MRAI builds the per-router MRAI policy. Required.
	MRAI mrai.Factory

	// Queue selects the input-queue discipline (default FIFO).
	Queue QueueDiscipline
	// BatchDiscardStale controls whether QueueBatched deletes superseded
	// same-neighbor updates without processing them (paper behaviour,
	// default true). Disabling isolates the grouping effect for ablation.
	BatchDiscardStale bool

	// ProcMin/ProcMax bound the uniformly distributed per-update
	// processing delay (paper: 1–30 ms).
	ProcMin, ProcMax time.Duration
	// ExtDelay is the one-way delay of inter-AS links (paper: 25 ms).
	ExtDelay time.Duration
	// IntDelay is the one-way delay of intra-AS (IBGP) sessions.
	IntDelay time.Duration

	// JitterTimers applies the RFC 1771 reduction of up to 25% to each
	// MRAI timer restart (paper: enabled).
	JitterTimers bool
	// RateLimitWithdrawals applies the MRAI to withdrawals as well
	// (RFC 1771 and SSFNet rate-limit only advertisements; default false).
	RateLimitWithdrawals bool
	// PerDestinationMRAI maintains one timer per (peer, destination)
	// instead of the per-peer timer deployed in the Internet
	// (Section 2 discussion; default false).
	PerDestinationMRAI bool

	// CancelOnChange implements the first Deshpande–Sikdar scheme: when a
	// pending destination's route changes to a different valid route while
	// the timer runs, the timer is canceled so the update goes out
	// immediately.
	CancelOnChange bool
	// FlapGate implements the second Deshpande–Sikdar scheme: the MRAI is
	// applied to a destination only after its route has changed at least
	// FlapGate times since the window opened. Zero disables the gate.
	FlapGate int

	// SkipNoopUpdates extends the batching scheme per the paper's future
	// work ("remove conflicting/superfluous updates"): an update whose
	// path matches what the Adj-RIB-In already stores for that peer is
	// dropped at zero processing cost.
	SkipNoopUpdates bool

	// OracleMRAI, when set, models the paper's ideal failure-extent-aware
	// scheme: at failure-injection time every surviving router whose
	// policy is mrai.Settable is switched to OracleMRAI(failedFraction).
	// Pair it with mrai.Oracle as the MRAI factory.
	OracleMRAI func(failedFraction float64) time.Duration

	// Policy enables Gao–Rexford routing policies: the decision process
	// prefers customer-learned over peer-learned over provider-learned
	// routes before path length, and exports peer/provider-learned routes
	// only to customers (valley-free routing). Nil (the default, and the
	// paper's configuration: "no policy based restrictions") disables
	// policies. Internal (IBGP) sessions are unaffected.
	Policy *topology.Relationships

	// Damping enables RFC 2439 route-flap damping at every router; nil
	// (the default, and the paper's configuration) disables it. Included
	// to study damping's well-known interference with post-failure
	// convergence.
	Damping *DampingConfig

	// PrefixesPerAS is the number of destination prefixes each AS
	// originates (default 1, the paper's setup). Larger values scale the
	// update-processing load the way the paper's discussion section
	// argues real-Internet table sizes (~200k prefixes) would.
	PrefixesPerAS int

	// DetectDelay is how long after a neighbor dies the session-down
	// processing runs at surviving peers (default 0: immediate, the
	// equivalent of link-layer notification).
	DetectDelay time.Duration
	// Seed drives every random draw in the simulation (processing delays,
	// jitter, the cold start's origination stagger).
	Seed int64

	// Tracer, when set, receives every protocol-level event (sends,
	// receives, decisions, timer restarts, failures). Nil disables
	// tracing at negligible cost.
	Tracer trace.Tracer

	// ref selects reference implementations for the in-package
	// differential digest tests. Zero — the only value another package
	// can construct — runs the production paths.
	ref refPaths
}

// refPaths is a bit set of reference implementations that the production
// paths are digest-compared against (incremental_test.go,
// stormpath_test.go, multiprefix_test.go, warmstart_test.go). Output is
// byte-identical in every combination; each bit exists so a test can pin
// one piece on its own.
type refPaths uint8

const (
	// refFullScan re-ranks every touched destination with a full
	// peer-slot scan, as if the best-slot cache did not exist. Flap
	// damping selects the same path by itself at run time (suppression
	// decays with time, so a cached winner cannot be trusted).
	refFullScan refPaths = 1 << iota
	// refNoBlockedSkip re-examines MRAI-gate-blocked pending
	// destinations on every flush pass.
	refNoBlockedSkip
	// refCompactAlways is not a reference path but the one other test
	// seam: it sweeps the path table at every safe point, however little
	// the table has grown (see Simulator.armSweep).
	refCompactAlways
	// refColdStart makes ConvergeInitial simulate initial convergence
	// (every origination as an event, then Run to quiescence) instead of
	// installing the snapshot fixpoint. Post-failure figures are
	// identical; absolute times and whole-run totals include the
	// simulated phase.
	refColdStart
	// refInvariants makes send panic on an update that carries its
	// receiver's AS (DESIGN.md, BGP invariants). It changes no output.
	refInvariants
)

// DefaultParams returns the paper's simulation configuration with a 30 s
// constant MRAI (the Internet default the paper starts from).
func DefaultParams() Params {
	return Params{
		MRAI:              mrai.Constant(30 * time.Second),
		Queue:             QueueFIFO,
		BatchDiscardStale: true,
		ProcMin:           1 * time.Millisecond,
		ProcMax:           30 * time.Millisecond,
		ExtDelay:          25 * time.Millisecond,
		IntDelay:          1 * time.Millisecond,
		JitterTimers:      true,
		Seed:              1,
	}
}

// Validate checks the parameter set.
func (p Params) Validate() error {
	switch {
	case p.MRAI == nil:
		return fmt.Errorf("bgp: MRAI factory is required")
	case p.Queue < QueueFIFO || p.Queue > QueueRouterBatch:
		return fmt.Errorf("bgp: unknown queue discipline %d", int(p.Queue))
	case p.ProcMin < 0 || p.ProcMax < p.ProcMin:
		return fmt.Errorf("bgp: processing delay range [%v,%v] invalid", p.ProcMin, p.ProcMax)
	case p.ExtDelay < 0 || p.IntDelay < 0:
		return fmt.Errorf("bgp: negative link delay")
	case p.DetectDelay < 0:
		return fmt.Errorf("bgp: negative detect delay")
	case p.FlapGate < 0:
		return fmt.Errorf("bgp: negative flap gate")
	case p.CancelOnChange && p.PerDestinationMRAI:
		return fmt.Errorf("bgp: CancelOnChange cancels the per-peer MRAI timer, which PerDestinationMRAI does not run")
	case p.PrefixesPerAS < 0:
		return fmt.Errorf("bgp: negative prefixes per AS")
	}
	if p.Damping != nil {
		if err := p.Damping.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// MeanProc returns the mean per-update processing delay, the multiplier
// that converts queue length into the paper's "unfinished work" signal.
func (p Params) MeanProc() time.Duration {
	return (p.ProcMin + p.ProcMax) / 2
}

package mrai

import (
	"fmt"
	"sort"
	"time"
)

// Settable is implemented by policies whose MRAI can be set externally.
// The simulator uses it for the oracle scheme: when a failure is
// injected, every surviving router's policy is switched to the value an
// omniscient operator would choose for that failure extent.
type Settable interface {
	Set(d time.Duration)
}

// Oracle returns a policy that uses initial until Set is called. It
// models the paper's future-work ideal — "a scheme that can accurately
// and quickly set the MRAI consistent with the extent of failure without
// significant overhead" — and serves as the upper bound the dynamic
// scheme is judged against.
func Oracle(initial time.Duration) Factory {
	return func(int) Policy { return &oraclePolicy{initial: initial, cur: initial} }
}

type oraclePolicy struct {
	initial, cur time.Duration
}

var (
	_ Policy   = (*oraclePolicy)(nil)
	_ Settable = (*oraclePolicy)(nil)
)

// Rewind forgets any Set and returns to the initial MRAI.
func (p *oraclePolicy) Rewind() { p.cur = p.initial }

// MRAI returns the externally chosen value; the snapshot is ignored.
func (p *oraclePolicy) MRAI(Snapshot) time.Duration { return p.cur }

// Set installs a new MRAI; it takes effect at the next timer restart,
// the same latency the paper's dynamic scheme has.
func (p *oraclePolicy) Set(d time.Duration) { p.cur = d }

// Step maps failure extents up to Frac (inclusive) to an MRAI.
type Step struct {
	Frac float64
	MRAI time.Duration
}

// StepTable builds a lookup from failure fraction to MRAI from steps
// sorted by Frac; fractions beyond the last step use the last MRAI.
// It panics on an empty or unsorted table (configuration error).
func StepTable(steps []Step) func(float64) time.Duration {
	// Invariant: the one table is PaperOracleTable's constant; no input
	// reaches a StepTable.
	if len(steps) == 0 {
		panic("mrai: empty oracle table")
	}
	if !sort.SliceIsSorted(steps, func(i, j int) bool { return steps[i].Frac < steps[j].Frac }) {
		panic(fmt.Sprintf("mrai: oracle table not sorted: %v", steps))
	}
	table := append([]Step(nil), steps...)
	return func(frac float64) time.Duration {
		for _, s := range table {
			if frac <= s.Frac {
				return s.MRAI
			}
		}
		return table[len(table)-1].MRAI
	}
}

// PaperOracleTable maps failure sizes to the optimal constant MRAIs the
// paper measured for 120-node 70-30 networks: 0.5s up to 2.5%, 1.25s up
// to 7.5%, 2.25s beyond.
func PaperOracleTable() func(float64) time.Duration {
	return StepTable([]Step{
		{Frac: 0.025, MRAI: 500 * time.Millisecond},
		{Frac: 0.075, MRAI: 1250 * time.Millisecond},
		{Frac: 1.0, MRAI: 2250 * time.Millisecond},
	})
}

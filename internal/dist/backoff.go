package dist

import "time"

// Retry schedule of a worker's requests: attempt k (0-based) waits
// backoffBase·2^k, capped at backoffMax, then scaled by a uniform factor
// in [1-backoffJitter, 1+backoffJitter] so a fleet of workers retrying a
// briefly-down coordinator does not stampede in lockstep. A request is
// tried maxAttempts times in a row before the worker gives up on the
// coordinator: roughly 25 s of retrying. Each try times out after
// requestTimeout.
const (
	backoffBase    = 100 * time.Millisecond
	backoffMax     = 5 * time.Second
	backoffJitter  = 0.2
	maxAttempts    = 8
	requestTimeout = 30 * time.Second
)

// backoffDelay returns the sleep before retrying attempt (0-based), given
// u, a uniform variate in [0,1). It is pure: no clocks, no sleeping —
// callers sleep, tests don't.
func backoffDelay(attempt int, u float64) time.Duration {
	d := backoffBase
	for i := 0; i < attempt && d < backoffMax; i++ {
		d *= 2
	}
	d = min(d, backoffMax)
	return time.Duration(float64(d) * (1 - backoffJitter + 2*backoffJitter*u))
}

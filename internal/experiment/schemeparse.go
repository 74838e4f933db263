package experiment

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"bgpsim/internal/mrai"
)

// ParseScheme translates the compact scheme syntax shared by the CLI
// (`bgpsim -scheme`) and the wire-encoded churn descriptors
// (internal/dist): a scheme named as a string is reconstructible on any
// worker, which is what lets a churn submission carry its scheme across
// the coordinator protocol without serializing closures.
//
// Syntax: mrai=<seconds> | degree=<low>,<high> | dynamic | batch[=<seconds>]
// | batch+dynamic | oracle.
func ParseScheme(s string) (Scheme, error) {
	switch {
	case s == "dynamic":
		return PaperDynamicMRAI(), nil
	case s == "oracle":
		return OracleMRAI(), nil
	case s == "batch+dynamic":
		return BatchingDynamic(mrai.PaperLevels, mrai.PaperUpTh, mrai.PaperDownTh), nil
	case s == "batch":
		return Batching(500 * time.Millisecond), nil
	case strings.HasPrefix(s, "batch="):
		d, err := parseSchemeSeconds(strings.TrimPrefix(s, "batch="))
		if err != nil {
			return Scheme{}, err
		}
		return Batching(d), nil
	case strings.HasPrefix(s, "mrai="):
		d, err := parseSchemeSeconds(strings.TrimPrefix(s, "mrai="))
		if err != nil {
			return Scheme{}, err
		}
		return ConstantMRAI(d), nil
	case strings.HasPrefix(s, "degree="):
		parts := strings.Split(strings.TrimPrefix(s, "degree="), ",")
		if len(parts) != 2 {
			return Scheme{}, fmt.Errorf("degree scheme needs low,high seconds: %q", s)
		}
		low, err := parseSchemeSeconds(parts[0])
		if err != nil {
			return Scheme{}, err
		}
		high, err := parseSchemeSeconds(parts[1])
		if err != nil {
			return Scheme{}, err
		}
		return DegreeMRAI(5, low, high), nil
	default:
		return Scheme{}, fmt.Errorf("unknown scheme %q", s)
	}
}

// parseSchemeSeconds reads a non-negative, finite number of seconds that
// fits a time.Duration; "NaN", "Inf" and overflowing values are errors,
// not a wrapped-around interval.
func parseSchemeSeconds(s string) (time.Duration, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return 0, fmt.Errorf("bad seconds value %q", s)
	}
	// float64(math.MaxInt64) rounds up to 2^63, one past the largest
	// Duration, so equality overflows too.
	ns := v * float64(time.Second)
	if ns >= float64(math.MaxInt64) {
		return 0, fmt.Errorf("seconds value %q overflows a duration", s)
	}
	return time.Duration(ns), nil
}

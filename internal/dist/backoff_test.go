package dist

import (
	"testing"
	"time"
)

func TestBackoffGrowthAndCap(t *testing.T) {
	want := []time.Duration{
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		1600 * time.Millisecond,
		3200 * time.Millisecond,
		backoffMax,
		backoffMax, // stays capped
	}
	for attempt, w := range want {
		// u = 0.5 is the jitter's midpoint: scale 1.
		if got := backoffDelay(attempt, 0.5); got != w {
			t.Errorf("backoffDelay(%d) = %v, want %v", attempt, got, w)
		}
	}
}

func TestBackoffHugeAttemptStaysCapped(t *testing.T) {
	if got := backoffDelay(10_000, 0.5); got != backoffMax {
		t.Errorf("backoffDelay(10000) = %v, want %v", got, backoffMax)
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	// Sweep the whole variate range: every delay must land inside
	// [base·(1-j), base·(1+j)], hitting both endpoints.
	lo := time.Duration(float64(backoffBase) * (1 - backoffJitter))
	hi := time.Duration(float64(backoffBase) * (1 + backoffJitter))
	sawLo, sawHi := false, false
	for i := 0; i <= 1000; i++ {
		u := float64(i) / 1000 // math/rand is [0,1); 1.0 bounds the sup
		got := backoffDelay(0, u)
		if got < lo || got > hi {
			t.Fatalf("backoffDelay(0, %v) = %v, outside [%v, %v]", u, got, lo, hi)
		}
		sawLo = sawLo || got == lo
		sawHi = sawHi || got == hi
	}
	if !sawLo || !sawHi {
		t.Errorf("jitter range not fully exercised: sawLo=%v sawHi=%v", sawLo, sawHi)
	}
}

package metrics

import (
	"reflect"
	"testing"
	"time"
)

func TestCountersOutsideWindowOnlyHitTotals(t *testing.T) {
	c := NewCollector(3)
	c.NoteSend(time.Second, 0, false)
	c.NoteProcessed(time.Second, 2)
	if c.Messages() != 0 || c.Processed != 0 {
		t.Error("windowed counters moved before OpenWindow")
	}
	if c.TotalMessages != 1 || c.TotalProcessed != 2 {
		t.Errorf("totals = %d/%d, want 1/2", c.TotalMessages, c.TotalProcessed)
	}
}

func TestWindowedCounting(t *testing.T) {
	c := NewCollector(3)
	c.NoteSend(time.Second, 0, false) // pre-window
	c.OpenWindow(10 * time.Second)
	c.NoteSend(11*time.Second, 1, false)
	c.NoteSend(12*time.Second, 1, true)
	c.NotePacket(12 * time.Second)
	c.NoteProcessed(13*time.Second, 4)
	c.NoteDiscarded(2)
	if c.Announcements != 1 || c.Withdrawals != 1 {
		t.Errorf("announce/withdraw = %d/%d", c.Announcements, c.Withdrawals)
	}
	if c.Messages() != 2 {
		t.Errorf("Messages = %d", c.Messages())
	}
	if c.Packets != 1 || c.Processed != 4 || c.Discarded != 2 {
		t.Errorf("packets/processed/discarded = %d/%d/%d", c.Packets, c.Processed, c.Discarded)
	}
	if c.TotalMessages != 3 {
		t.Errorf("TotalMessages = %d", c.TotalMessages)
	}
}

func TestConvergenceDelayTracksLastActivity(t *testing.T) {
	c := NewCollector(2)
	c.OpenWindow(100 * time.Second)
	if c.ConvergenceDelay() != 0 {
		t.Errorf("delay with no activity = %v", c.ConvergenceDelay())
	}
	c.NoteSend(105*time.Second, 0, false)
	c.NoteProcessed(130*time.Second, 1)
	c.NoteSend(120*time.Second, 1, false) // out of order is fine
	if got := c.ConvergenceDelay(); got != 30*time.Second {
		t.Errorf("delay = %v, want 30s", got)
	}
	if c.LastActivity() != 130*time.Second {
		t.Errorf("LastActivity = %v", c.LastActivity())
	}
}

func TestOpenWindowResetsWindowedCounters(t *testing.T) {
	c := NewCollector(2)
	c.OpenWindow(0)
	c.NoteSend(time.Second, 0, false)
	c.NoteRouteChange(time.Second)
	c.OpenWindow(10 * time.Second)
	if c.Messages() != 0 || c.RouteChanges() != 0 {
		t.Error("windowed counters survived OpenWindow")
	}
	if c.TotalMessages != 1 {
		t.Errorf("TotalMessages = %d, want 1 (totals persist)", c.TotalMessages)
	}
	if c.ConvergenceDelay() != 0 {
		t.Errorf("delay after reopen = %v", c.ConvergenceDelay())
	}
}

func TestPerNodeSentIsolatedCopy(t *testing.T) {
	c := NewCollector(2)
	c.OpenWindow(0)
	c.NoteSend(time.Second, 0, false)
	c.NoteSend(time.Second, 0, true)
	c.NoteSend(time.Second, 1, false)
	got := c.PerNodeSent()
	if got[0] != 2 || got[1] != 1 {
		t.Errorf("PerNodeSent = %v", got)
	}
	got[0] = 99
	if c.PerNodeSent()[0] != 2 {
		t.Error("PerNodeSent returned internal slice")
	}
	// Out-of-range node must not panic.
	c.NoteSend(time.Second, 7, false)
}

func TestQueueLenHighWaterMark(t *testing.T) {
	c := NewCollector(1)
	c.NoteQueueLen(5)
	c.NoteQueueLen(3)
	c.NoteQueueLen(9)
	if c.MaxQueueLen != 9 {
		t.Errorf("MaxQueueLen = %d", c.MaxQueueLen)
	}
	if c.TotalMaxQueueLen != 9 {
		t.Errorf("TotalMaxQueueLen = %d", c.TotalMaxQueueLen)
	}
}

func TestOpenWindowResetsMaxQueueLen(t *testing.T) {
	// Regression: Phase-1 (initial convergence) queue buildup must not
	// contaminate the post-failure load statistic. Before the fix,
	// OpenWindow left MaxQueueLen at its pre-failure high-water mark.
	c := NewCollector(1)
	c.NoteQueueLen(250) // initial-convergence burst
	c.OpenWindow(10 * time.Second)
	if c.MaxQueueLen != 0 {
		t.Errorf("MaxQueueLen after OpenWindow = %d, want 0", c.MaxQueueLen)
	}
	c.NoteQueueLen(7)
	c.NoteQueueLen(4)
	if c.MaxQueueLen != 7 {
		t.Errorf("windowed MaxQueueLen = %d, want 7", c.MaxQueueLen)
	}
	if c.TotalMaxQueueLen != 250 {
		t.Errorf("TotalMaxQueueLen = %d, want 250 (whole-run max persists)", c.TotalMaxQueueLen)
	}
}

// TestResizeMatchesNewCollector pins Resize: a used collector resized to
// n routers, smaller or larger, is the collector NewCollector(n) returns.
func TestResizeMatchesNewCollector(t *testing.T) {
	c := NewCollector(4)
	c.OpenWindow(time.Second)
	c.NoteSend(2*time.Second, 3, false)
	c.NoteQueueLen(9)
	for _, n := range []int{2, 4, 7, 1} {
		c.Resize(n)
		if got := c.PerNodeSent(); len(got) != n {
			t.Fatalf("Resize(%d): %d per-node counters", n, len(got))
		}
		c.OpenWindow(time.Second)
		c.NoteSend(2*time.Second, n-1, true)
		c.NoteSend(2*time.Second, n, true) // out of range: counted, not attributed
		fresh := NewCollector(n)
		fresh.OpenWindow(time.Second)
		fresh.NoteSend(2*time.Second, n-1, true)
		fresh.NoteSend(2*time.Second, n, true)
		if !reflect.DeepEqual(c, fresh) {
			t.Errorf("Resize(%d): %+v, NewCollector: %+v", n, c, fresh)
		}
	}
}

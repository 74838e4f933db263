package main

import "testing"

// TestParseSchemeVariants runs every scheme form bgpsim accepts, oracle
// included, through the tool's -scheme flag.
func TestParseSchemeVariants(t *testing.T) {
	for _, in := range []string{"dynamic", "batch", "batch=1", "batch+dynamic", "oracle",
		"mrai=0.5", "mrai=30", "degree=0.5,2.25"} {
		if err := run([]string{"-nodes", "12", "-scheme", in}); err != nil {
			t.Errorf("-scheme %q: %v", in, err)
		}
	}
}

// TestParseSchemeRejectsGarbage pins that a scheme bgpsim refuses is
// refused here too, never run as a wrapped-around or truncated MRAI.
func TestParseSchemeRejectsGarbage(t *testing.T) {
	for _, in := range []string{"", "wat", "mrai=", "mrai=-1", "mrai=1e300", "mrai=Inf", "mrai=0.5x"} {
		if err := run([]string{"-nodes", "12", "-scheme", in}); err == nil {
			t.Errorf("-scheme %q accepted", in)
		}
	}
}

func TestTraceRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end trace run skipped in -short")
	}
	if err := run([]string{"-nodes", "24", "-fail", "10", "-scheme", "mrai=0.5"}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceRunUnknownEventKind(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end trace run skipped in -short")
	}
	if err := run([]string{"-nodes", "24", "-events", "-kind", "bogus"}); err == nil {
		t.Error("unknown kind accepted")
	}
}

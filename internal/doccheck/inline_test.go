package doccheck

import (
	"os/exec"
	"strings"
	"testing"
)

// hotInlined lists the internal/bgp helpers the simulation's hot loops
// call per update or per destination. Each is written to fit the
// compiler's inlining budget; a call that stops inlining costs every
// update of every storm without changing any output.
var hotInlined = []string{
	"(*router).now",
	"(*receiveStation).busy",
	"(*inbox).Len",
	"(*cellSlab).cell",
	"(*flushStation).destAllowed",
	"(*flushStation).gateTime",
	"(*router).flushAll",
	"bitset.has",
	"bitset.set",
	"bitset.clear",
	"bitset.any",
	"(*refSlot).get",
	"(*adjRIBIn).getSlotRef",
	"(*adjRIBIn).setSlot",
	"(*locRIB).getRef",
	"(*pathTab).routeVia",
	"(*lane).push",
	"(*lane).Head",
}

// TestHotHelpersInline builds internal/bgp with -gcflags=-m and fails for
// every helper in hotInlined the compiler does not report as inlinable.
func TestHotHelpersInline(t *testing.T) {
	cmd := exec.Command("go", "build", "-gcflags=-m", "./internal/bgp")
	cmd.Dir = repoRoot(t)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m ./internal/bgp: %v\n%s", err, out)
	}
	inlinable := make(map[string]bool)
	for _, line := range strings.Split(string(out), "\n") {
		if _, fn, ok := strings.Cut(line, ": can inline "); ok {
			inlinable[strings.Fields(fn)[0]] = true
		}
	}
	for _, fn := range hotInlined {
		if !inlinable[fn] {
			t.Errorf("%s no longer inlines", fn)
		}
	}
}

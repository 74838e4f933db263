package experiment

import (
	"testing"

	"bgpsim/internal/bgp"
	"bgpsim/internal/mrai"
)

// FuzzParseScheme: no input panics the parser, and an accepted scheme
// yields parameters that validate and an MRAI policy that never returns
// a negative interval (the signature of a wrapped-around Duration). The
// seed corpus is testdata/fuzz/FuzzParseScheme; a plain go test runs
// only those.
func FuzzParseScheme(f *testing.F) {
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ParseScheme(in)
		if err != nil {
			return
		}
		p := bgp.DefaultParams()
		s.Apply(&p)
		if err := p.Validate(); err != nil {
			t.Fatalf("ParseScheme(%q) = %q: Validate: %v", in, s.Name, err)
		}
		for _, degree := range []int{1, 5, 50} {
			if m := p.MRAI(degree).MRAI(mrai.Snapshot{Degree: degree}); m < 0 {
				t.Fatalf("ParseScheme(%q) = %q: degree-%d MRAI %v", in, s.Name, degree, m)
			}
		}
	})
}

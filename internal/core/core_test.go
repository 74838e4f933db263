package core

import (
	"fmt"
	"strings"
	"testing"
)

// microOptions is the smallest configuration that still exercises every
// code path: 24 nodes, one trial, two points per axis.
func microOptions() Options {
	return Options{
		Nodes:              24,
		Trials:             1,
		Seed:               3,
		FailureSizes:       []float64{5, 15},
		MRAIs:              []float64{0.5, 2.0},
		RealisticMaxASSize: 3,
	}
}

func TestRegistryCoversAllPaperFigures(t *testing.T) {
	reg := Registry()
	byID := make(map[string]Experiment, len(reg))
	for _, e := range reg {
		if e.ID == "" || e.FigureID == "" || e.Title == "" || e.XLabel() == "" {
			t.Errorf("experiment %+v incomplete", e.ID)
		}
		if _, err := e.Grid(microOptions()); err != nil {
			t.Errorf("%s: %v", e.ID, err)
		}
		if _, dup := byID[e.ID]; dup {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		byID[e.ID] = e
	}
	for i := 1; i <= 13; i++ {
		if _, ok := byID[fmt.Sprintf("fig%d", i)]; !ok {
			t.Errorf("missing fig%d", i)
		}
	}
	for i := 14; i < len(reg); i++ {
		if reg[i-1].ID >= reg[i].ID {
			t.Errorf("ablations out of ID order: %q before %q", reg[i-1].ID, reg[i].ID)
		}
	}
	if len(reg) < 13+5 {
		t.Errorf("registry has %d experiments; expected 13 figures plus ablations", len(reg))
	}
}

// mustLookup is Lookup for an ID the registry holds.
func mustLookup(t *testing.T, id string) Experiment {
	t.Helper()
	e, err := Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestLookup(t *testing.T) {
	for _, id := range []string{"fig7", "7", "ablation-batch-discard"} {
		if _, err := Lookup(id); err != nil {
			t.Errorf("Lookup(%q): %v", id, err)
		}
	}
	if _, err := Lookup("fig99"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestOptionsNormalize(t *testing.T) {
	var o Options
	n := o.normalize()
	def := DefaultOptions()
	if n.Nodes != def.Nodes || n.Trials != def.Trials || n.Seed != def.Seed {
		t.Errorf("normalize() = %+v", n)
	}
	if len(n.FailureSizes) == 0 || len(n.MRAIs) == 0 || n.RealisticMaxASSize == 0 {
		t.Error("normalize left axes empty")
	}
	custom := Options{Nodes: 60}
	if got := custom.normalize(); got.Nodes != 60 {
		t.Error("normalize overwrote explicit field")
	}
}

func TestFig1SmokeAndShape(t *testing.T) {
	fig, err := mustLookup(t, "fig1").Run(microOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("series = %d, want 3 constant MRAIs", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Points) != 2 {
			t.Fatalf("series %q points = %d", s.Name, len(s.Points))
		}
	}
	if fig.ID != "Fig 1" || !strings.Contains(fig.XLabel, "failure size") {
		t.Errorf("labels: id=%q x=%q", fig.ID, fig.XLabel)
	}
}

func TestFig2UsesMessageMetric(t *testing.T) {
	fig, err := mustLookup(t, "fig2").Run(microOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fig.YLabel, "messages") {
		t.Errorf("y label = %q", fig.YLabel)
	}
	// Message counts are large integers, delays are small seconds.
	if fig.Series[0].Points[0].Y < 50 {
		t.Errorf("message metric looks like a delay: %v", fig.Series[0].Points[0].Y)
	}
}

func TestFig3MRAISweepAxes(t *testing.T) {
	fig, err := mustLookup(t, "fig3").Run(microOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	if !strings.Contains(fig.XLabel, "MRAI") {
		t.Errorf("x label = %q", fig.XLabel)
	}
	for _, s := range fig.Series {
		for i, p := range s.Points {
			if p.X != microOptions().MRAIs[i] {
				t.Errorf("series %q x[%d] = %v", s.Name, i, p.X)
			}
		}
	}
}

func TestAllExperimentsRunAtMicroScale(t *testing.T) {
	if testing.Short() {
		t.Skip("micro sweep of all experiments skipped in -short")
	}
	o := microOptions()
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			fig, err := e.Run(o)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(fig.Series) == 0 {
				t.Fatalf("%s: no series", e.ID)
			}
			for _, s := range fig.Series {
				if len(s.Points) == 0 {
					t.Errorf("%s/%s: no points", e.ID, s.Name)
				}
				for _, p := range s.Points {
					if p.Y < 0 {
						t.Errorf("%s/%s: negative y %v", e.ID, s.Name, p.Y)
					}
				}
			}
			out := fig.Render()
			if !strings.Contains(out, fig.ID) {
				t.Errorf("%s: render missing id", e.ID)
			}
		})
	}
}

func TestProgressCallbacksFire(t *testing.T) {
	o := microOptions()
	count := 0
	o.Progress = func(done, total int) {
		count++
		if done > total {
			t.Errorf("done %d > total %d", done, total)
		}
	}
	if _, err := mustLookup(t, "fig1").Run(o); err != nil {
		t.Fatal(err)
	}
	if count != 3*2 {
		t.Errorf("progress fired %d times, want 6", count)
	}
}

// TestFigureWorkerInvariant: a sweep fanned over several sweep workers
// renders the single-worker bytes.
func TestFigureWorkerInvariant(t *testing.T) {
	e, err := Lookup("3")
	if err != nil {
		t.Fatal(err)
	}
	render := func(workers int) string {
		opts := microOptions()
		opts.Workers = workers
		fig, err := e.Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		return fig.Render()
	}
	want := render(1)
	for _, workers := range []int{2, 4} {
		if got := render(workers); got != want {
			t.Errorf("workers=%d: figure diverged from serial\nserial:\n%s\nparallel:\n%s", workers, want, got)
		}
	}
}

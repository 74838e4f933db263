package bgpsim_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bgpsim"
	"bgpsim/internal/experiment"
)

// TestRegistryMatchesCommittedFigures: at paper scale, every registry
// entry's grid and labels declare exactly the figure committed under
// results/ — its ID, title, axis labels, series names and x values —
// and every committed figure is an entry. No trial runs, so this pins
// the shape of the figures CI does not regenerate at paper scale.
func TestRegistryMatchesCommittedFigures(t *testing.T) {
	exps := bgpsim.Experiments()
	paths, err := filepath.Glob("results/*.txt")
	if err != nil {
		t.Fatal(err)
	}
	if want := len(exps) + 1; len(paths) != want { // all_figures.txt is bgpfig's stdout
		t.Errorf("results/ holds %d .txt files, want one per experiment plus all_figures.txt (%d)", len(paths), want)
	}
	for _, e := range exps {
		data, err := os.ReadFile(filepath.Join("results", e.ID+".txt"))
		if err != nil {
			t.Error(err)
			continue
		}
		got, err := readFigure(string(data))
		if err != nil {
			t.Errorf("results/%s.txt: %v", e.ID, err)
			continue
		}
		for _, s := range got.Series {
			for i := range s.Points {
				s.Points[i].Y = 0
			}
		}
		cfg, err := e.Grid(bgpsim.PaperOptions())
		if err != nil {
			t.Errorf("%s: %v", e.ID, err)
			continue
		}
		want := experiment.Figure{ID: e.FigureID, Title: e.Title, XLabel: e.XLabel(), YLabel: cfg.Metric.String()}
		for _, name := range cfg.SeriesNames {
			s := experiment.Series{Name: name}
			for _, x := range cfg.Xs {
				s.Points = append(s.Points, experiment.Point{X: x})
			}
			want.Series = append(want.Series, s)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the registry declares\n%+v\nresults/%s.txt holds\n%+v", e.ID, want, e.ID, got)
		}
	}
}

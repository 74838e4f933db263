package experiment

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"bgpsim/internal/failure"
	"bgpsim/internal/topology"
)

func sweepCell(si int, x float64) Scenario {
	mrais := []time.Duration{500 * time.Millisecond, 2250 * time.Millisecond}
	return Scenario{
		Topology: topology.Spec{Kind: topology.KindSkewed7030, N: 30},
		Failure:  failure.Geographic(x / 100),
		Scheme:   ConstantMRAI(mrais[si]),
		Seed:     100,
	}
}

func TestSweepProducesFigure(t *testing.T) {
	var calls int
	fig, err := NewSimPool().Sweep(context.Background(), SweepConfig{
		SeriesNames:           []string{"MRAI=0.5s", "MRAI=2.25s"},
		Xs:                    []float64{5, 10},
		Cell:                  sweepCell,
		Trials:                2,
		Metric:                MetricDelay,
		SameWorldAcrossSeries: true,
		Progress:              func(done, total int) { calls++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Points) != 2 {
			t.Fatalf("series %q has %d points", s.Name, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Y <= 0 {
				t.Errorf("series %q x=%v: y=%v", s.Name, p.X, p.Y)
			}
		}
	}
	if calls != 4 {
		t.Errorf("progress called %d times, want 4", calls)
	}
	if fig.YLabel != MetricDelay.String() {
		t.Errorf("y label = %q", fig.YLabel)
	}
}

func TestSweepMessagesMetric(t *testing.T) {
	fig, err := NewSimPool().Sweep(context.Background(), SweepConfig{
		SeriesNames:           []string{"a"},
		Xs:                    []float64{10},
		Cell:                  func(si int, x float64) Scenario { return sweepCell(0, x) },
		Trials:                1,
		Metric:                MetricMessages,
		SameWorldAcrossSeries: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fig.Series[0].Points[0].Y < 10 {
		t.Errorf("message count = %v, implausibly low", fig.Series[0].Points[0].Y)
	}
}

func TestSweepValidation(t *testing.T) {
	if _, err := NewSimPool().Sweep(context.Background(), SweepConfig{}); err == nil {
		t.Error("empty sweep accepted")
	}
	if _, err := NewSimPool().Sweep(context.Background(), SweepConfig{SeriesNames: []string{"a"}}); err == nil {
		t.Error("sweep without xs accepted")
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NormalizeSweep(SweepConfig{SeriesNames: []string{"a"}, Xs: []float64{1, x}}); err == nil {
			t.Errorf("sweep point %v accepted", x)
		}
	}
}

func TestSweepErrorsPropagate(t *testing.T) {
	_, err := NewSimPool().Sweep(context.Background(), SweepConfig{
		SeriesNames: []string{"a"},
		Xs:          []float64{1},
		Cell: func(si int, x float64) Scenario {
			sc := sweepCell(0, x)
			sc.Topology.Kind = "bogus"
			return sc
		},
		Trials: 1,
	})
	if err == nil {
		t.Error("cell error swallowed")
	}
}

func TestSweepSameWorldPairsSeries(t *testing.T) {
	// With SameWorldAcrossSeries and identical schemes, both series must
	// produce identical numbers.
	fig, err := NewSimPool().Sweep(context.Background(), SweepConfig{
		SeriesNames:           []string{"a", "b"},
		Xs:                    []float64{10},
		Cell:                  func(si int, x float64) Scenario { return sweepCell(0, x) },
		Trials:                1,
		SameWorldAcrossSeries: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fig.Series[0].Points[0].Y != fig.Series[1].Points[0].Y {
		t.Error("same-world series diverged for identical schemes")
	}
	// Without pairing they should (almost surely) differ.
	fig2, err := NewSimPool().Sweep(context.Background(), SweepConfig{
		SeriesNames: []string{"a", "b"},
		Xs:          []float64{10},
		Cell:        func(si int, x float64) Scenario { return sweepCell(0, x) },
		Trials:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fig2.Series[0].Points[0].Y == fig2.Series[1].Points[0].Y {
		t.Log("warning: unpaired series coincided (possible but unlikely)")
	}
}

func TestFigureRender(t *testing.T) {
	fig := Figure{
		ID:     "Fig X",
		Title:  "test",
		XLabel: "x",
		YLabel: "y",
		Series: []Series{
			{Name: "s1", Points: []Point{{X: 1, Y: 2.5}, {X: 2, Y: 3}}},
			{Name: "s2", Points: []Point{{X: 1, Y: 4}}},
		},
	}
	out := fig.Render()
	for _, want := range []string{"Fig X", "s1", "s2", "2.5", "4", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // 2 comments + header + 2 rows
		t.Errorf("render has %d lines:\n%s", len(lines), out)
	}
}

func TestFigureRenderEmpty(t *testing.T) {
	out := Figure{ID: "f", Title: "t"}.Render()
	if !strings.Contains(out, "no series") {
		t.Errorf("empty render = %q", out)
	}
}

func TestSeriesHelpers(t *testing.T) {
	s := Series{Name: "v", Points: []Point{{X: 0.5, Y: 9}, {X: 1.25, Y: 3}, {X: 2.25, Y: 7}}}
	if x, ok := s.ArgminX(); !ok || x != 1.25 {
		t.Errorf("ArgminX = %v,%v", x, ok)
	}
	if y, ok := s.YAt(2.25); !ok || y != 7 {
		t.Errorf("YAt = %v,%v", y, ok)
	}
	if _, ok := s.YAt(99); ok {
		t.Error("YAt missing x returned ok")
	}
	if _, ok := (Series{}).ArgminX(); ok {
		t.Error("ArgminX on empty returned ok")
	}
	fig := Figure{Series: []Series{s}}
	if _, ok := fig.SeriesByName("v"); !ok {
		t.Error("SeriesByName miss")
	}
	if _, ok := fig.SeriesByName("w"); ok {
		t.Error("SeriesByName false hit")
	}
}

func TestTrimFloat(t *testing.T) {
	for _, c := range []struct {
		in   float64
		want string
	}{{1, "1"}, {2.5, "2.5"}, {0.125, "0.125"}, {10.10, "10.1"}} {
		if got := trimFloat(c.in); got != c.want {
			t.Errorf("trimFloat(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestMetricString(t *testing.T) {
	if MetricDelay.String() != "convergence delay (s)" {
		t.Error(MetricDelay.String())
	}
	if MetricMessages.String() != "update messages" {
		t.Error(MetricMessages.String())
	}
	if Metric(9).String() == "" {
		t.Error("unknown metric empty")
	}
}

func TestFigureJSONRoundTrip(t *testing.T) {
	fig := Figure{
		ID: "Fig 7", Title: "t", XLabel: "x", YLabel: "y",
		Series: []Series{{Name: "s", Points: []Point{{X: 1, Y: 2}, {X: 3, Y: 4}}}},
	}
	var buf bytes.Buffer
	if err := fig.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFigureJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != fig.ID || len(back.Series) != 1 || back.Series[0].Points[1] != fig.Series[0].Points[1] {
		t.Errorf("round trip changed figure: %+v", back)
	}
	if _, err := ReadFigureJSON(bytes.NewBufferString("{bad")); err == nil {
		t.Error("garbage accepted")
	}
}

package experiment

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Point is one (x, y) sample of a figure series.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Series is one labeled curve.
type Series struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
}

// Figure is a reproduced paper figure: labeled series over a shared
// x-axis.
type Figure struct {
	ID     string   `json:"id"`
	Title  string   `json:"title"`
	XLabel string   `json:"xLabel"`
	YLabel string   `json:"yLabel"`
	Series []Series `json:"series"`
}

// Render formats the figure as an aligned text table, one row per x
// value and one column per series — the form the experiment CLI prints
// and the committed files under results/ hold.
func (f Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s — %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "# x: %s, y: %s\n", f.XLabel, f.YLabel)
	if len(f.Series) == 0 {
		b.WriteString("(no series)\n")
		return b.String()
	}

	// Collect the union of x values in first-seen order.
	var xs []float64
	seen := make(map[float64]bool)
	for _, s := range f.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}

	header := make([]string, 0, len(f.Series)+1)
	header = append(header, f.XLabel)
	for _, s := range f.Series {
		header = append(header, s.Name)
	}
	rows := [][]string{header}
	for _, x := range xs {
		row := make([]string, 0, len(f.Series)+1)
		row = append(row, trimFloat(x))
		for _, s := range f.Series {
			cell := "-"
			for _, p := range s.Points {
				if p.X == x {
					cell = trimFloat(p.Y)
					break
				}
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}

	widths := make([]int, len(header))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	return b.String()
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.3f", v)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// SeriesByName returns the named series and whether it exists.
func (f Figure) SeriesByName(name string) (Series, bool) {
	for _, s := range f.Series {
		if s.Name == name {
			return s, true
		}
	}
	return Series{}, false
}

// YAt returns the series' y value at x.
func (s Series) YAt(x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// ArgminX returns the x whose y is smallest (the "optimal MRAI" the
// paper reads off the V-curves).
func (s Series) ArgminX() (float64, bool) {
	if len(s.Points) == 0 {
		return 0, false
	}
	best := s.Points[0]
	for _, p := range s.Points[1:] {
		if p.Y < best.Y {
			best = p
		}
	}
	return best.X, true
}

// WriteJSON serializes the figure for external plotting tools.
func (f Figure) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f)
}

// ReadFigureJSON deserializes a figure written by WriteJSON.
func ReadFigureJSON(r io.Reader) (Figure, error) {
	var f Figure
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return Figure{}, fmt.Errorf("experiment: decode figure: %w", err)
	}
	return f, nil
}

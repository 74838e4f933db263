package bgpsim_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"bgpsim/internal/experiment"
)

// The scorecard checks the paper's shape claims against the committed
// figures in results/. Each row is one claim, evaluated with a predicate
// fixed before the figures were read; its committed verdict is "holds" or
// "finding: <one line>". A row whose verdict moves fails the test: a
// finding is reported, never fixed by moving a bound. EXPERIMENTS.md
// carries the printed scorecard, and the test checks that copy too.

// readFigure parses the text table Figure.Render writes.
func readFigure(text string) (experiment.Figure, error) {
	var f experiment.Figure
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	if len(lines) < 3 {
		return f, fmt.Errorf("%d lines, want a title, an axis line and a table", len(lines))
	}
	var ok bool
	if f.ID, f.Title, ok = strings.Cut(strings.TrimPrefix(lines[0], "# "), " — "); !ok {
		return f, fmt.Errorf("title line %q", lines[0])
	}
	axes, ok := strings.CutPrefix(lines[1], "# x: ")
	if !ok {
		return f, fmt.Errorf("axis line %q", lines[1])
	}
	if f.XLabel, f.YLabel, ok = strings.Cut(axes, ", y: "); !ok {
		return f, fmt.Errorf("axis line %q", lines[1])
	}
	if lines[2] == "(no series)" {
		return f, nil
	}
	header, rows := lines[2], lines[3:]
	if len(rows) == 0 {
		return f, fmt.Errorf("header %q has no rows", header)
	}
	// Every cell is left-aligned in a column of fixed width, so the
	// first row's cell offsets cut the header, whose names hold spaces.
	var starts []int
	for i := range rows[0] {
		if rows[0][i] != ' ' && (i == 0 || rows[0][i-1] == ' ') {
			starts = append(starts, i)
		}
	}
	for i, start := range starts {
		end := len(header)
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		if start > len(header) || end > len(header) {
			return f, fmt.Errorf("header %q is narrower than its rows", header)
		}
		name := strings.TrimRight(header[start:end], " ")
		if i == 0 {
			if name != f.XLabel {
				return f, fmt.Errorf("header starts %q, want the x label %q", name, f.XLabel)
			}
			continue
		}
		f.Series = append(f.Series, experiment.Series{Name: name})
	}
	for _, row := range rows {
		cells := strings.Fields(row)
		if len(cells) != len(starts) {
			return f, fmt.Errorf("row %q has %d cells, want %d", row, len(cells), len(starts))
		}
		x, err := strconv.ParseFloat(cells[0], 64)
		if err != nil {
			return f, err
		}
		for i, cell := range cells[1:] {
			if cell == "-" {
				continue
			}
			y, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return f, err
			}
			f.Series[i].Points = append(f.Series[i].Points, experiment.Point{X: x, Y: y})
		}
	}
	return f, nil
}

// TestResultsReadBackByteForByte: every committed figure parses and
// renders again to the same bytes, so the scorecard reads exactly what
// bgpfig wrote. all_figures.txt is bgpfig's stdout, not one figure.
func TestResultsReadBackByteForByte(t *testing.T) {
	paths, err := filepath.Glob("results/*.txt")
	if err != nil {
		t.Fatal(err)
	}
	read := 0
	for _, path := range paths {
		if filepath.Base(path) == "all_figures.txt" {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := readFigure(string(data))
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if got := f.Render(); got != string(data) {
			t.Errorf("%s renders differently after reading:\n%s", path, got)
		}
		read++
	}
	if read < 25 {
		t.Errorf("read %d figures from results/, want the 13 figures and 12 ablations", read)
	}

	// Missing points render as "-" cells, and a figure without series
	// renders as one line; both read back to the figure that wrote them.
	for _, want := range []experiment.Figure{
		{ID: "Fig 0", Title: "gaps", XLabel: "MRAI (s)", YLabel: "convergence delay (s)", Series: []experiment.Series{
			{Name: "a b", Points: []experiment.Point{{X: 2, Y: 1.5}, {X: 3, Y: 20}}},
			{Name: "c", Points: []experiment.Point{{X: 2, Y: 0.125}, {X: 3, Y: 7}, {X: 0.25, Y: 1234.5}}},
			{Name: "long series name", Points: []experiment.Point{{X: 0.25, Y: 4}}},
		}},
		{ID: "Ablation Z", Title: "empty", XLabel: "x", YLabel: "y"},
	} {
		text := want.Render()
		got, err := readFigure(text)
		if err != nil {
			t.Fatalf("%s: %v\n%s", want.ID, err, text)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s reads back as %+v, want %+v", want.ID, got, want)
		}
		if got.Render() != text {
			t.Errorf("%s renders differently after reading", want.ID)
		}
	}
}

// claim evaluates one scorecard row against one figure: every clause
// it checks prints as a line, and one false clause fails the row.
type claim struct {
	t     *testing.T
	fig   experiment.Figure
	held  bool
	lines []string
}

func (c *claim) check(ok bool, format string, args ...any) {
	mark := "ok"
	if !ok {
		mark, c.held = "NO", false
	}
	c.lines = append(c.lines, mark+"  "+fmt.Sprintf(format, args...))
}

func (c *claim) series(name string) experiment.Series {
	s, ok := c.fig.SeriesByName(name)
	if !ok {
		c.t.Fatalf("%s has no series %q", c.fig.ID, name)
	}
	return s
}

func (c *claim) y(name string, x float64) float64 {
	y, ok := c.series(name).YAt(x)
	if !ok {
		c.t.Fatalf("%s series %q has no point at %v", c.fig.ID, name, x)
	}
	return y
}

func (c *claim) argmin(name string) float64 {
	x, ok := c.series(name).ArgminX()
	if !ok {
		c.t.Fatalf("%s series %q is empty", c.fig.ID, name)
	}
	return x
}

// xs returns the figure's x values in order, filtered by keep.
func (c *claim) xs(keep func(x float64) bool) []float64 {
	var out []float64
	for _, p := range c.fig.Series[0].Points {
		if keep(p.X) {
			out = append(out, p.X)
		}
	}
	return out
}

func all(float64) bool     { return true }
func small(x float64) bool { return x <= 2.5 }
func large(x float64) bool { return x >= 10 }
func num(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// at names an x value in the figure's unit.
func (c *claim) at(x float64) string {
	if strings.HasPrefix(c.fig.XLabel, "MRAI") {
		return num(x) + " s"
	}
	return num(x) + "%"
}

// lowest checks that no series is below name at x.
func (c *claim) lowest(name string, x float64) {
	y, ok := c.y(name, x), true
	var others []string
	for _, s := range c.fig.Series {
		if s.Name == name {
			continue
		}
		o := c.y(s.Name, x)
		ok = ok && y <= o
		others = append(others, s.Name+" "+num(o))
	}
	c.check(ok, "%s: %s %s is lowest (%s)", c.at(x), name, num(y), strings.Join(others, ", "))
}

// nearer checks that name's y at x is nearer near's than far's on a log
// scale: |ln(a/b)| < |ln(a/c)|.
func (c *claim) nearer(name, near, far string, x float64) {
	a, b, d := c.y(name, x), c.y(near, x), c.y(far, x)
	lb, ld := math.Abs(math.Log(a/b)), math.Abs(math.Log(a/d))
	c.check(lb < ld, "%s: %s %s nearer %s %s than %s %s (|ln| %.3f vs %.3f)",
		c.at(x), name, num(a), near, num(b), far, num(d), lb, ld)
}

// atMost checks y(a) ≤ y(b)/div at x.
func (c *claim) atMost(a, b string, div float64, x float64) {
	ya, yb := c.y(a, x), c.y(b, x)
	scale := ""
	if div != 1 {
		scale = " / " + num(div)
	}
	c.check(ya <= yb/div, "%s: %s %s ≤ %s %s%s", c.at(x), a, num(ya), b, num(yb), scale)
}

// below checks y(a) < y(b) at x.
func (c *claim) below(a, b string, x float64) {
	ya, yb := c.y(a, x), c.y(b, x)
	c.check(ya < yb, "%s: %s %s < %s %s", c.at(x), a, num(ya), b, num(yb))
}

// argminsRise checks that the named series' argmins never fall and that
// the last exceeds the first.
func (c *claim) argminsRise(names ...string) {
	ok, parts := true, make([]string, len(names))
	for i, name := range names {
		x := c.argmin(name)
		parts[i] = fmt.Sprintf("%s %s", name, c.at(x))
		ok = ok && (i == 0 || x >= c.argmin(names[i-1]))
	}
	ok = ok && c.argmin(names[len(names)-1]) > c.argmin(names[0])
	c.check(ok, "argmin %s", strings.Join(parts, " ≤ "))
}

// row is one paper claim: the figure it reads, its committed verdict and
// its predicate.
type row struct {
	id, fig, want string
	eval          func(c *claim)
}

var scorecard = []row{
	{"F1", "fig1", "holds", func(c *claim) {
		for _, x := range c.xs(small) {
			c.lowest("MRAI=0.5s", x)
		}
		for _, x := range c.xs(large) {
			c.lowest("MRAI=2.25s", x)
		}
	}},
	{"F2", "fig2", "holds", func(c *claim) {
		xs := c.xs(all)
		first, last := xs[0], xs[len(xs)-1]
		r0 := c.y("MRAI=0.5s", first) / c.y("MRAI=2.25s", first)
		r1 := c.y("MRAI=0.5s", last) / c.y("MRAI=2.25s", last)
		c.check(r1 > r0, "messages MRAI=0.5s / MRAI=2.25s: %s %.3f < %s %.3f", c.at(first), r0, c.at(last), r1)
		for _, x := range c.xs(large) {
			a, b, d := c.y("MRAI=0.5s", x), c.y("MRAI=1.25s", x), c.y("MRAI=2.25s", x)
			c.check(a > b && b > d, "%s: MRAI=0.5s %s > MRAI=1.25s %s > MRAI=2.25s %s", c.at(x), num(a), num(b), num(d))
		}
	}},
	{"F3-V", "fig3", "finding: 1% has its argmin at 0.25 s, the first MRAI of the grid", func(c *claim) {
		xs := c.xs(all)
		for _, s := range c.fig.Series {
			x := c.argmin(s.Name)
			c.check(x != xs[0] && x != xs[len(xs)-1], "%s: argmin %s (%s), grid %s–%s",
				s.Name, c.at(x), num(c.y(s.Name, x)), c.at(xs[0]), c.at(xs[len(xs)-1]))
		}
	}},
	{"F3-shift", "fig3", "holds", func(c *claim) {
		c.argminsRise("1% failure", "5% failure", "10% failure")
	}},
	{"F4", "fig4", "holds", func(c *claim) {
		c.argminsRise("50-50", "70-30", "85-15")
	}},
	{"F5", "fig5", "holds", func(c *claim) {
		lo, hi := "avg degree 3.8", "avg degree 7.6"
		c.argminsRise(lo, hi)
		ylo, yhi := c.y(lo, c.argmin(lo)), c.y(hi, c.argmin(hi))
		c.check(yhi > ylo, "minimum delay %s %s < %s %s", lo, num(ylo), hi, num(yhi))
	}},
	{"F6-small", "fig6", "holds", func(c *claim) {
		for _, x := range c.xs(small) {
			c.below("low 0.5, high 2.25", "MRAI=2.25s", x)
		}
	}},
	{"F6-large", "fig6", "holds", func(c *claim) {
		for _, x := range c.xs(large) {
			c.nearer("low 0.5, high 2.25", "MRAI=2.25s", "MRAI=0.5s", x)
			c.nearer("low 2.25, high 0.5", "MRAI=0.5s", "MRAI=2.25s", x)
		}
	}},
	{"F7-small", "fig7", "holds", func(c *claim) {
		for _, x := range c.xs(small) {
			c.atMost("dynamic", "MRAI=0.5s", 1, x)
		}
	}},
	{"F7-5%", "fig7", "holds", func(c *claim) {
		c.atMost("dynamic", "MRAI=1.25s", 1, 5)
	}},
	{"F7-large", "fig7", "holds", func(c *claim) {
		for _, x := range c.xs(large) {
			c.below("dynamic", "MRAI=1.25s", x)
			c.below("dynamic", "MRAI=0.5s", x)
		}
	}},
	{"F8", "fig8", "holds", func(c *claim) {
		xs := c.xs(all)
		c.below("upTh=1.25s", "upTh=50ms", xs[0])
		c.below("upTh=50ms", "upTh=1.25s", xs[len(xs)-1])
	}},
	{"F9", "fig9", "holds", func(c *claim) {
		for _, x := range c.xs(large) {
			c.below("downTh=0s", "downTh=450ms", x)
		}
	}},
	{"F10-3×", "fig10", "holds", func(c *claim) {
		for _, x := range c.xs(large) {
			c.atMost("batch,MRAI=0.5s", "MRAI=0.5s", 3, x)
		}
	}},
	{"F10-low", "fig10", "holds", func(c *claim) {
		for _, x := range c.xs(all) {
			c.atMost("batch,MRAI=0.5s", "MRAI=0.5s", 1, x)
		}
	}},
	{"F10-dyn", "fig10", "finding: at 1%, batch 11.413 s is above dynamic 11.195 s", func(c *claim) {
		for _, x := range c.xs(all) {
			c.atMost("batch,MRAI=0.5s", "dynamic", 1, x)
		}
	}},
	{"F10-combo", "fig10", "finding: batch+dynamic is above min(batch, dynamic) at all six sizes", func(c *claim) {
		for _, x := range c.xs(all) {
			b, d, bd := c.y("batch,MRAI=0.5s", x), c.y("dynamic", x), c.y("batch+dynamic", x)
			c.check(bd <= math.Min(b, d), "%s: batch+dynamic %s ≤ min(batch,MRAI=0.5s %s, dynamic %s)",
				c.at(x), num(bd), num(b), num(d))
		}
	}},
	{"F11", "fig11", "holds", func(c *claim) {
		for _, x := range c.xs(large) {
			c.nearer("batch,MRAI=0.5s", "MRAI=2.25s", "MRAI=0.5s", x)
		}
	}},
	{"F12-below", "fig12", "holds", func(c *claim) {
		opt := c.argmin("no batching")
		for _, x := range c.xs(func(x float64) bool { return x < opt }) {
			c.below("batching", "no batching", x)
		}
	}},
	{"F12-above", "fig12", "finding: 1.25 s −14.3%, 2 s +17.6%, 2.25 s +22.1%", func(c *claim) {
		opt := c.argmin("no batching")
		for _, x := range c.xs(func(x float64) bool { return x > opt }) {
			b, nb := c.y("batching", x), c.y("no batching", x)
			c.check(math.Abs(b/nb-1) <= 0.10, "%s: batching %s / no batching %s − 1 = %+.1f%%, within ±10%%",
				c.at(x), num(b), num(nb), 100*(b/nb-1))
		}
	}},
	{"F13-cross", "fig13", "holds", func(c *claim) {
		c.below("MRAI=0.5s", "MRAI=3.5s", c.xs(all)[0])
		for _, x := range c.xs(large) {
			c.below("MRAI=3.5s", "MRAI=0.5s", x)
		}
	}},
	{"F13-batch", "fig13", "holds", func(c *claim) {
		for _, x := range c.xs(large) {
			c.lowest("batch,MRAI=0.5s", x)
		}
	}},
}

// TestScorecard evaluates every row against results/, prints the
// scorecard, fails on a verdict that moved, and requires EXPERIMENTS.md
// to carry the printout byte for byte.
func TestScorecard(t *testing.T) {
	figs := make(map[string]experiment.Figure)
	var b strings.Builder
	holds, findings := 0, 0
	for _, r := range scorecard {
		f, ok := figs[r.fig]
		if !ok {
			data, err := os.ReadFile(filepath.Join("results", r.fig+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			if f, err = readFigure(string(data)); err != nil {
				t.Fatalf("results/%s.txt: %v", r.fig, err)
			}
			figs[r.fig] = f
		}
		c := &claim{t: t, fig: f, held: true}
		r.eval(c)
		verdict := r.want
		switch {
		case c.held && r.want == "holds":
			holds++
		case !c.held && strings.HasPrefix(r.want, "finding: "):
			findings++
		case c.held:
			verdict = "holds (committed: " + r.want + ")"
			t.Errorf("%s: the row holds, but its committed verdict is %q", r.id, r.want)
		default:
			verdict = "fails (committed: holds)"
			t.Errorf("%s: the row fails, but its committed verdict is \"holds\"", r.id)
		}
		fmt.Fprintf(&b, "%-10s %-6s %s\n", r.id, r.fig, verdict)
		for _, l := range c.lines {
			fmt.Fprintf(&b, "    %s\n", l)
		}
	}
	fmt.Fprintf(&b, "%d rows: %d hold, %d findings\n", len(scorecard), holds, findings)
	card := b.String()
	fmt.Print(card)

	data, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(data), "\n## Scorecard\n")
	if !ok {
		t.Fatal("EXPERIMENTS.md has no \"## Scorecard\" section")
	}
	_, rest, ok = strings.Cut(rest, "\n```text\n")
	if !ok {
		t.Fatal("EXPERIMENTS.md's Scorecard section has no ```text block")
	}
	copied, _, ok := strings.Cut(rest, "```\n")
	if !ok || copied != card {
		t.Errorf("EXPERIMENTS.md's scorecard block differs from the printout; replace it with:\n%s", card)
	}
}

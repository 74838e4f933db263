package doccheck

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// experimentsBudget is the most lines EXPERIMENTS.md may have. The paper's
// claims live in the scorecard and the measurements in one current table,
// so a change updates them rather than adding a section.
const experimentsBudget = 700

// TestExperimentsLineBudget holds EXPERIMENTS.md to its line budget.
func TestExperimentsLineBudget(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(repoRoot(t), "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n > experimentsBudget {
		t.Errorf("EXPERIMENTS.md has %d lines, over its budget of %d", n, experimentsBudget)
	}
}

// inlineSpans returns the backticked spans of text outside fenced
// blocks, each at the line it starts on, with line breaks inside a span
// read as spaces.
func inlineSpans(text string) []docLine {
	lines := strings.Split(text, "\n")
	inFence := false
	for i, l := range lines {
		fence := strings.HasPrefix(strings.TrimSpace(l), "```")
		if fence {
			inFence = !inFence
		}
		if fence || inFence {
			lines[i] = ""
		}
	}
	var out []docLine
	prose := strings.Join(lines, "\n")
	line, open := 1, -1
	for i, c := range prose {
		switch c {
		case '\n':
			line++
		case '`':
			if open < 0 {
				open = i + 1
				out = append(out, docLine{line: line})
				continue
			}
			out[len(out)-1].text = strings.TrimSpace(strings.ReplaceAll(prose[open:i], "\n", " "))
			open = -1
		}
	}
	if open >= 0 {
		out = out[:len(out)-1] // an unclosed backtick is not a span
	}
	return out
}

// goPath matches a backticked Go file path. A span written
// <commit>:<path> names a file in history; its colon keeps it out.
var goPath = regexp.MustCompile(`^[A-Za-z0-9_.][A-Za-z0-9_./-]*\.go$`)

// TestDocumentedGoFilesExist: every backticked .go path in the top-level
// documents names a file in the tree, as a path from the root or as its
// trailing part (router.go, bgp/sim.go). A file that is gone is cited as
// <commit>:<path>.
func TestDocumentedGoFilesExist(t *testing.T) {
	root := repoRoot(t)
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if strings.HasSuffix(p, ".go") {
			rel, _ := filepath.Rel(root, p)
			files = append(files, "/"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	exists := func(name string) bool {
		for _, f := range files {
			if strings.HasSuffix(f, "/"+name) {
				return true
			}
		}
		return false
	}
	for _, doc := range commandDocs {
		data, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range inlineSpans(string(data)) {
			if goPath.MatchString(span.text) && !exists(strings.TrimPrefix(span.text, "./")) {
				t.Errorf("%s:%d: `%s` matches no file; cite a deleted file as `<commit>:<path>`", doc, span.line, span.text)
			}
		}
	}
}

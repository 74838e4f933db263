package doccheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// commandDocs are the documents whose shell examples must name only
// flags the invoked tool defines.
var commandDocs = []string{"README.md", "EXPERIMENTS.md", "ARCHITECTURE.md", "DESIGN.md"}

// flagDefiners are the flag.FlagSet (and flag package) methods whose
// first string-literal argument names a flag.
var flagDefiners = map[string]bool{
	"Bool": true, "BoolVar": true, "Int": true, "IntVar": true,
	"Int64": true, "Int64Var": true, "Uint": true, "UintVar": true,
	"Uint64": true, "Uint64Var": true, "Float64": true, "Float64Var": true,
	"String": true, "StringVar": true, "Duration": true, "DurationVar": true,
	"Var": true, "Func": true, "BoolFunc": true, "TextVar": true,
}

// toolFlags maps every cmd/<tool> to the flags its non-test source
// defines, plus internal/profiling's when the tool imports it, plus the
// -h/-help every flag.FlagSet answers.
func toolFlags(t *testing.T) map[string]map[string]bool {
	t.Helper()
	root := repoRoot(t)
	profiling, _ := definedFlags(t, filepath.Join(root, "internal/profiling"))
	entries, err := os.ReadDir(filepath.Join(root, "cmd"))
	if err != nil {
		t.Fatal(err)
	}
	tools := make(map[string]map[string]bool)
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		flags, imports := definedFlags(t, filepath.Join(root, "cmd", e.Name()))
		if imports[`"bgpsim/internal/profiling"`] {
			for f := range profiling {
				flags[f] = true
			}
		}
		flags["h"], flags["help"] = true, true
		tools[e.Name()] = flags
	}
	return tools
}

// definedFlags returns the flag names the non-test package at dir
// defines and the import paths (quoted) it uses.
func definedFlags(t *testing.T, dir string) (flags, imports map[string]bool) {
	t.Helper()
	flags, imports = make(map[string]bool), make(map[string]bool)
	_, pkgs := parseNonTest(t, dir)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, imp := range file.Imports {
				imports[imp.Path.Value] = true
			}
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !flagDefiners[sel.Sel.Name] {
					return true
				}
				for _, arg := range call.Args {
					if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						if name, err := strconv.Unquote(lit.Value); err == nil {
							flags[name] = true
						}
						break
					}
				}
				return true
			})
		}
	}
	return flags, imports
}

// docLine is one shell line of a document: continuations joined.
type docLine struct {
	line int
	text string
}

// shellLines returns the lines of text's fenced blocks whose info string
// is not go, with trailing-backslash continuations joined onto the line
// they continue.
func shellLines(text string) []docLine {
	var out []docLine
	inFence, goFence := false, false
	var cur *docLine
	for i, l := range strings.Split(text, "\n") {
		trimmed := strings.TrimSpace(l)
		if strings.HasPrefix(trimmed, "```") {
			inFence = !inFence
			goFence = inFence && strings.TrimSpace(strings.TrimPrefix(trimmed, "```")) == "go"
			cur = nil
			continue
		}
		if !inFence || goFence {
			continue
		}
		joined := strings.HasSuffix(trimmed, `\`)
		trimmed = strings.TrimSuffix(trimmed, `\`)
		if cur != nil {
			cur.text += " " + trimmed
		} else {
			out = append(out, docLine{line: i + 1, text: trimmed})
			cur = &out[len(out)-1]
		}
		if !joined {
			cur = nil
		}
	}
	return out
}

// shellCommands splits a shell line into commands (at |, &, ; outside
// quotes), each a list of words with quotes removed; a # that starts a
// word comments out the rest of the line.
func shellCommands(line string) [][]string {
	var cmds [][]string
	var words []string
	var word strings.Builder
	inWord := false
	var quote rune
	endWord := func() {
		if inWord {
			words = append(words, word.String())
			word.Reset()
			inWord = false
		}
	}
	endCmd := func() {
		endWord()
		if len(words) > 0 {
			cmds = append(cmds, words)
			words = nil
		}
	}
	for _, c := range line {
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			} else {
				word.WriteRune(c)
			}
		case c == '\'' || c == '"':
			quote, inWord = c, true
		case c == '#' && !inWord:
			endCmd()
			return cmds
		case c == '|' || c == '&' || c == ';':
			endCmd()
		case c == ' ' || c == '\t':
			endWord()
		default:
			word.WriteRune(c)
			inWord = true
		}
	}
	endCmd()
	return cmds
}

// invocation returns the repo tool a command runs and the words after
// it, or tool "" when the command runs no repo tool. A tool is invoked
// as go run ./cmd/X, or as X, bin/X, ./X or any other path ending in /X;
// go run ./cmd/X names a tool, so it is an error when there is no cmd/X.
func invocation(words []string, tools map[string]map[string]bool) (tool string, args []string, err error) {
	for len(words) > 0 && (words[0] == "$" || words[0] == "time" ||
		(strings.Contains(words[0], "=") && !strings.HasPrefix(words[0], "-"))) {
		words = words[1:] // prompt, timing, environment assignments
	}
	if len(words) >= 2 && words[0] == "go" && words[1] == "run" {
		words = words[2:]
		for len(words) > 0 && strings.HasPrefix(words[0], "-") {
			words = words[1:]
		}
		if len(words) == 0 {
			return "", nil, nil
		}
		tool, ok := strings.CutPrefix(strings.TrimSuffix(strings.TrimPrefix(words[0], "./"), "/"), "cmd/")
		if !ok {
			return "", nil, nil
		}
		if _, known := tools[tool]; !known {
			return "", nil, fmt.Errorf("there is no cmd/%s", tool)
		}
		return tool, words[1:], nil
	}
	if len(words) == 0 {
		return "", nil, nil
	}
	tool = path.Base(words[0])
	if _, known := tools[tool]; !known {
		return "", nil, nil
	}
	return tool, words[1:], nil
}

// flagName returns the flag a word names (-x, --x, -x=v), or "" for a
// word that is not a flag (a value such as -1, a lone dash).
func flagName(word string) string {
	if !strings.HasPrefix(word, "-") {
		return ""
	}
	name, _, _ := strings.Cut(strings.TrimLeft(word, "-"), "=")
	if name == "" || !(name[0] >= 'a' && name[0] <= 'z' || name[0] >= 'A' && name[0] <= 'Z') {
		return ""
	}
	return name
}

// TestDocumentedCommandsUseDefinedFlags: every flag on a shell line of
// the top-level documents, or in a backticked inline command, that runs
// a repo tool is one that tool defines, read from its source, so a
// removed flag cannot live on in an example; go run ./cmd/X names an
// existing tool.
func TestDocumentedCommandsUseDefinedFlags(t *testing.T) {
	root := repoRoot(t)
	tools := toolFlags(t)
	for _, doc := range commandDocs {
		data, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		for _, dl := range append(shellLines(text), inlineSpans(text)...) {
			for _, words := range shellCommands(dl.text) {
				tool, args, err := invocation(words, tools)
				if err != nil {
					t.Errorf("%s:%d: %v: %s", doc, dl.line, err, dl.text)
				}
				for _, w := range args {
					if name := flagName(w); name != "" && !tools[tool][name] {
						t.Errorf("%s:%d: %s has no flag -%s: %s", doc, dl.line, tool, name, dl.text)
					}
				}
			}
		}
	}
}

// TestReadmeFlagTableMatchesBgpfig: every flag README's bgpfig flag table
// lists in its first column is one cmd/bgpfig defines.
func TestReadmeFlagTableMatchesBgpfig(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(repoRoot(t), "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	flags := toolFlags(t)["bgpfig"]
	lines := strings.Split(string(data), "\n")
	start := -1
	for i, l := range lines {
		if strings.Contains(l, "`bgpfig` flags") {
			start = i + 1
			break
		}
	}
	if start < 0 {
		t.Fatal("README.md has no \"`bgpfig` flags\" table")
	}
	flagRef := regexp.MustCompile("`(-[A-Za-z][-A-Za-z0-9]*)")
	rows := 0
	for _, l := range lines[start:] {
		l = strings.TrimSpace(l)
		if l == "" && rows == 0 {
			continue
		}
		if !strings.HasPrefix(l, "|") {
			break
		}
		rows++
		first := strings.Split(l, "|")[1]
		for _, m := range flagRef.FindAllStringSubmatch(first, -1) {
			if !flags[flagName(m[1])] {
				t.Errorf("README.md bgpfig flag table lists %s, which cmd/bgpfig does not define", m[1])
			}
		}
	}
	if rows < 3 {
		t.Errorf("README.md bgpfig flag table has %d rows; the check found no table", rows)
	}
}

// TestSimulationIsOneGoroutine: a simulation is one event loop on one
// goroutine, so the packages that run it start none. Parallelism lives
// above them, in sweep workers and distributed workers.
func TestSimulationIsOneGoroutine(t *testing.T) {
	for _, pkg := range []string{"internal/des", "internal/bgp"} {
		fset, pkgs := parseNonTest(t, filepath.Join(repoRoot(t), pkg))
		for _, p := range pkgs {
			for _, file := range p.Files {
				ast.Inspect(file, func(n ast.Node) bool {
					if g, ok := n.(*ast.GoStmt); ok {
						t.Errorf("%s: go statement in %s", fset.Position(g.Pos()), pkg)
					}
					return true
				})
			}
		}
	}
}

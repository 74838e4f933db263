package doccheck

import (
	"fmt"
	"go/ast"
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

// architectureBudget is the most lines ARCHITECTURE.md may have.
// ARCHITECTURE is a map of the code as it is; how a mechanism got that
// way is history, and history belongs in CHANGES.md. A change that adds
// a mechanism trims a was/now passage to make room, and the budget only
// comes down.
const architectureBudget = 971

// TestArchitectureLineBudget holds ARCHITECTURE.md to its line budget.
func TestArchitectureLineBudget(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(repoRoot(t), "ARCHITECTURE.md"))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n > architectureBudget {
		t.Errorf("ARCHITECTURE.md has %d lines, over its budget of %d", n, architectureBudget)
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

// symbolRef matches a backticked Go symbol: pkg.Name, Type.member,
// (*Type).method, or pkg.Type.member. A span written <commit>:<symbol>
// names a symbol in history; its colon keeps it out.
var symbolRef = regexp.MustCompile(`^(?:\(\*([A-Za-z]\w*)\)|([A-Za-z]\w*))\.([A-Za-z]\w*)(?:\.([A-Za-z]\w*))?$`)

// treeSymbols is what the tree's non-main packages declare: each
// package's package-level names, and each type's fields and methods,
// per package declaring a type of that name (an alias declares none).
type treeSymbols struct {
	pkgs  map[string]map[string]bool            // package name -> package-level names
	types map[string]map[string]map[string]bool // type name -> package name -> members
}

// loadTreeSymbols parses every non-main package under root.
func loadTreeSymbols(t *testing.T, root string) treeSymbols {
	syms := treeSymbols{pkgs: map[string]map[string]bool{}, types: map[string]map[string]map[string]bool{}}
	member := func(pkg, typ, name string) {
		if syms.types[typ] == nil {
			syms.types[typ] = map[string]map[string]bool{}
		}
		if syms.types[typ][pkg] == nil {
			syms.types[typ][pkg] = map[string]bool{}
		}
		syms.types[typ][pkg][name] = true
	}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		_, pkgs := parseNonTest(t, p)
		for name, pkg := range pkgs {
			if name == "main" {
				continue
			}
			decls := syms.pkgs[name]
			if decls == nil {
				decls = map[string]bool{}
				syms.pkgs[name] = decls
			}
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					switch d := decl.(type) {
					case *ast.FuncDecl:
						if d.Recv == nil {
							decls[d.Name.Name] = true
						} else {
							member(name, receiverType(d.Recv.List[0].Type), d.Name.Name)
						}
					case *ast.GenDecl:
						for _, spec := range d.Specs {
							switch s := spec.(type) {
							case *ast.ValueSpec:
								for _, n := range s.Names {
									decls[n.Name] = true
								}
							case *ast.TypeSpec:
								decls[s.Name.Name] = true
								if s.Assign.IsValid() {
									continue // an alias has its target's members
								}
								member(name, s.Name.Name, "") // declared, members or not
								for _, m := range typeMembers(s.Type) {
									member(name, s.Name.Name, m)
								}
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return syms
}

// receiverType returns the name of a method's receiver type.
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// typeMembers returns the field names of a struct type (an embedded
// field by its type's name) and the method names of an interface type.
func typeMembers(e ast.Expr) []string {
	var fields *ast.FieldList
	switch x := e.(type) {
	case *ast.StructType:
		fields = x.Fields
	case *ast.InterfaceType:
		fields = x.Methods
	default:
		return nil
	}
	var out []string
	for _, f := range fields.List {
		for _, n := range f.Names {
			out = append(out, n.Name)
		}
		if len(f.Names) == 0 {
			out = append(out, receiverType(f.Type))
		}
	}
	return out
}

// TestDocumentedSymbolsExist: every backticked Go symbol in the
// top-level documents names a declaration in the tree. In pkg.Name, when
// pkg is an in-tree package (or the root bgpsim), Name must be declared
// at its package level, and in pkg.Type.member the type must have the
// member. In Type.member and (*Type).method, when exactly one in-tree
// package declares Type, member must be a field or method of it. A name
// with an underscore is a benchmark metric (bgp.storm_s), not a symbol;
// a symbol that is gone is cited as <commit>:<symbol>.
func TestDocumentedSymbolsExist(t *testing.T) {
	root := repoRoot(t)
	syms := loadTreeSymbols(t, root)
	for _, doc := range commandDocs {
		data, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range inlineSpans(string(data)) {
			if problem := syms.check(span.text); problem != "" {
				t.Errorf("%s:%d: `%s`: %s; cite a deleted symbol as `<commit>:<symbol>`", doc, span.line, span.text, problem)
			}
		}
	}
}

// check returns what is wrong with the symbol span names, or "" when it
// exists or is not a checked form.
func (syms treeSymbols) check(span string) string {
	m := symbolRef.FindStringSubmatch(span)
	if m == nil || strings.HasSuffix(span, ".go") {
		return ""
	}
	star, first, name, sub := m[1], m[2], m[3], m[4]
	if strings.Contains(name, "_") || strings.Contains(sub, "_") {
		return ""
	}
	if decls, ok := syms.pkgs[first]; ok && star == "" {
		if !decls[name] {
			return fmt.Sprintf("package %s declares no %s", first, name)
		}
		if sub != "" && syms.types[name][first] != nil && !syms.types[name][first][sub] {
			return fmt.Sprintf("%s.%s has no field or method %s", first, name, sub)
		}
		return ""
	}
	typ := star + first
	owners := syms.types[typ]
	if len(owners) != 1 || sub != "" {
		return ""
	}
	for pkg, members := range owners {
		if !members[name] {
			return fmt.Sprintf("%s.%s has no field or method %s", pkg, typ, name)
		}
	}
	return ""
}

package doccheck

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
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
// ARCHITECTURE is a map of the code as it is: one section per mechanism,
// with its files, its invariant and the CHANGES.md entry that holds its
// measurement. How a mechanism got that way is history, and history
// belongs in CHANGES.md. The budget only comes down.
const architectureBudget = 599

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
// per package declaring a type of that name (an alias declares none);
// and every name any Go file of the module declares.
type treeSymbols struct {
	pkgs  map[string]map[string]bool            // package name -> package-level names
	types map[string]map[string]map[string]bool // type name -> package name -> members
	names map[string]bool                       // every declared name, tests and commands included
}

// bareName matches a backticked bare identifier. Only a camel-case one,
// with a capital and a lower-case letter both, is taken for a symbol:
// an English word (`sweep`) and an all-caps one (`NO`, `MRAI`) are not.
var bareName = regexp.MustCompile(`^[A-Za-z][A-Za-z0-9]*$`)

func camelCase(s string) bool {
	return bareName.MatchString(s) && strings.ToLower(s) != s && strings.ToUpper(s) != s
}

// goFiles parses every .go file under root, tests and commands
// included, skipping hidden directories and testdata, and calls visit
// with each.
func goFiles(t *testing.T, root string, mode parser.Mode, visit func(path string, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, mode)
		if err != nil {
			return err
		}
		visit(p, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// declaredNames returns every name a Go file under root declares:
// functions, methods, types, constants, variables, fields, parameters,
// short variable declarations and labels.
func declaredNames(t *testing.T, root string) map[string]bool {
	names := map[string]bool{}
	declare := func(list ...ast.Expr) {
		for _, e := range list {
			if id, ok := e.(*ast.Ident); ok {
				names[id.Name] = true
			}
		}
	}
	idents := func(list []*ast.Ident) {
		for _, id := range list {
			declare(id)
		}
	}
	goFiles(t, root, 0, func(_ string, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				declare(x.Name)
			case *ast.TypeSpec:
				declare(x.Name)
			case *ast.ValueSpec:
				idents(x.Names)
			case *ast.Field:
				idents(x.Names)
			case *ast.AssignStmt:
				if x.Tok == token.DEFINE {
					declare(x.Lhs...)
				}
			case *ast.RangeStmt:
				if x.Tok == token.DEFINE {
					declare(x.Key, x.Value)
				}
			case *ast.LabeledStmt:
				declare(x.Label)
			}
			return true
		})
	})
	return names
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
	syms.names = declaredNames(t, root)
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
// top-level documents names a declaration in the tree. A bare camel-case
// name (`Rebind`, `tryFlush`) must be declared by some Go file of the
// module, tests included. In pkg.Name, when
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
	if camelCase(span) {
		if !syms.names[span] {
			return "no Go file of the module declares it"
		}
		return ""
	}
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

// prCite matches a pull-request citation in prose: "PR 29", or "PRs 10
// and 29" with every number after it.
var (
	prCite    = regexp.MustCompile(`\bPRs?\s+(\d+(?:(?:,\s+|\s+and\s+|\s+or\s+)\d+)*)`)
	prNumber  = regexp.MustCompile(`\d+`)
	prEntry   = regexp.MustCompile(`(?m)^- PR (\d+)\b`)
	spaceRuns = regexp.MustCompile(`\s+`)
)

// TestArchitectureCitesChangesEntries: every PR that ARCHITECTURE.md
// cites has an entry in CHANGES.md, a line that begins "- PR N", where
// the measurement the citation points to lives.
func TestArchitectureCitesChangesEntries(t *testing.T) {
	root := repoRoot(t)
	changes, err := os.ReadFile(filepath.Join(root, "CHANGES.md"))
	if err != nil {
		t.Fatal(err)
	}
	entries := map[string]bool{}
	for _, m := range prEntry.FindAllStringSubmatch(string(changes), -1) {
		entries[m[1]] = true
	}
	arch, err := os.ReadFile(filepath.Join(root, "ARCHITECTURE.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range prCite.FindAllSubmatchIndex(arch, -1) {
		line := 1 + bytes.Count(arch[:m[0]], []byte("\n"))
		for _, n := range prNumber.FindAllString(string(arch[m[2]:m[3]]), -1) {
			if !entries[n] {
				t.Errorf("ARCHITECTURE.md:%d: cites PR %s, which has no \"- PR %s\" entry in CHANGES.md", line, n, n)
			}
		}
	}
}

// sectionRef matches a pointer into ARCHITECTURE.md: its file name, then
// a section heading in double quotes, in text whose line breaks and
// comment markers have been read as single spaces.
var sectionRef = regexp.MustCompile(`ARCHITECTURE\.md\)? "([^"]+)"`)

// headings returns the text of a Markdown document's headings, any
// level.
func headings(doc string) map[string]bool {
	out := map[string]bool{}
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(line, "#") {
			out[strings.TrimSpace(strings.TrimLeft(line, "#"))] = true
		}
	}
	return out
}

// TestArchitectureSectionReferencesExist: every pointer to a section of
// ARCHITECTURE.md — the file name followed by a quoted heading — in a Go
// comment or in README, DESIGN or EXPERIMENTS names a heading that
// ARCHITECTURE.md has.
func TestArchitectureSectionReferencesExist(t *testing.T) {
	root := repoRoot(t)
	arch, err := os.ReadFile(filepath.Join(root, "ARCHITECTURE.md"))
	if err != nil {
		t.Fatal(err)
	}
	have := headings(string(arch))
	check := func(where, text string) {
		for _, m := range sectionRef.FindAllStringSubmatch(spaceRuns.ReplaceAllString(text, " "), -1) {
			if !have[m[1]] {
				t.Errorf("%s: points to ARCHITECTURE.md section %q, which is no heading there", where, m[1])
			}
		}
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		data, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		check(doc, string(data))
	}
	goFiles(t, root, parser.ParseComments, func(path string, f *ast.File) {
		rel, _ := filepath.Rel(root, path)
		for _, c := range f.Comments {
			check(rel, c.Text())
		}
	})
}

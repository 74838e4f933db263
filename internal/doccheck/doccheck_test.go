// Package doccheck enforces the repository's godoc policy with the
// toolchain alone (no external linter dependency): every exported symbol
// in the audited packages must carry a doc comment. CI runs this as a
// dedicated step, so a missing comment fails the build the same way a
// revive/golint exported-symbol rule would.
package doccheck

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// auditedPackages lists the directories (relative to the repo root) whose
// exported API must be fully documented. Extend this list as packages
// reach documentation-complete status; never shrink it.
var auditedPackages = []string{
	"internal/des",
	"internal/bgp",
	"internal/metrics",
	"internal/profiling",
}

// TestExportedSymbolsHaveDocComments parses each audited package and
// reports every exported declaration — functions, methods, types,
// consts, vars, and exported struct fields of exported types — that has
// no doc comment.
func TestExportedSymbolsHaveDocComments(t *testing.T) {
	root := repoRoot(t)
	for _, pkg := range auditedPackages {
		pkg := pkg
		t.Run(strings.ReplaceAll(pkg, "/", "_"), func(t *testing.T) {
			for _, problem := range auditPackage(t, filepath.Join(root, pkg)) {
				t.Error(problem)
			}
		})
	}
}

// repoRoot locates the module root from the test's working directory
// (the package directory, two levels below the root).
func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// auditPackage returns one message per undocumented exported symbol in
// the package at dir. Test files are skipped: their exported identifiers
// are harness entry points, not API.
func auditPackage(t *testing.T, dir string) []string {
	t.Helper()
	fset, pkgs := parseNonTest(t, dir)
	var problems []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		problems = append(problems, fmt.Sprintf("%s:%d: exported %s %s has no doc comment",
			p.Filename, p.Line, kind, name))
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && d.Doc.Text() == "" {
						kind := "function"
						if d.Recv != nil {
							if !receiverExported(d) {
								continue // method on unexported type
							}
							kind = "method"
						}
						report(d.Pos(), kind, d.Name.Name)
					}
				case *ast.GenDecl:
					auditGenDecl(d, report)
				}
			}
		}
	}
	return problems
}

// parseNonTest parses the non-test files of the package at dir.
func parseNonTest(t *testing.T, dir string) (*token.FileSet, map[string]*ast.Package) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatalf("%s: %v", dir, err)
	}
	return fset, pkgs
}

// TestBGPHoldsNoProcessWideState keeps internal/bgp, the trial layers
// above it (internal/experiment, internal/churn) and the layers every
// trial builds on (internal/topology, internal/des) a function of their
// arguments: a trial's outcome and cost may depend on the Simulator, the
// Params and the stream it was given, never on something another trial,
// test or tool set process-wide. No package-level variable is allowed
// beside the blank interface assertions and the named allowlist below,
// each written once and never after, and no package may import
// internal/profiling, whose flags are process-wide by nature.
func TestBGPHoldsNoProcessWideState(t *testing.T) {
	allowed := map[string]bool{
		"ErrDegreeSequence": true, // an immutable sentinel error
		"ErrHorizon":        true, // an immutable sentinel error
		"ErrCanceled":       true, // an immutable sentinel error
		"FailureSizesPct":   true, // the paper's grid axes
		"MRAISweepSeconds":  true,
		"lazyPow":           true, // an immutable table of the RNG's jump powers
		"rngCooked":         true, // math/rand's immutable seed table
		"paperLaw":          true, // the paper's degree law, built once at init
		// The topology memo stays until the benchmark/-only PR drops
		// checkHeld, which reads it through BuildTopologyCached.
		"sharedTopoCache": true,
	}
	for _, dir := range []string{"internal/bgp", "internal/experiment", "internal/churn", "internal/topology", "internal/des"} {
		fset, pkgs := parseNonTest(t, filepath.Join(repoRoot(t), dir))
		for _, pkg := range pkgs {
			for _, file := range pkg.Files {
				for _, imp := range file.Imports {
					if imp.Path.Value == `"bgpsim/internal/profiling"` {
						t.Errorf("%s: %s imports internal/profiling", fset.Position(imp.Pos()), dir)
					}
				}
				for _, decl := range file.Decls {
					d, ok := decl.(*ast.GenDecl)
					if !ok || d.Tok != token.VAR {
						continue
					}
					for _, spec := range d.Specs {
						for _, name := range spec.(*ast.ValueSpec).Names {
							if name.Name != "_" && !allowed[name.Name] {
								t.Errorf("%s: package-level var %s", fset.Position(name.Pos()), name.Name)
							}
						}
					}
				}
			}
		}
	}
}

// receiverExported reports whether a method's receiver base type is
// exported (methods on unexported types are not public API).
func receiverExported(d *ast.FuncDecl) bool {
	if len(d.Recv.List) == 0 {
		return false
	}
	typ := d.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if idx, ok := typ.(*ast.IndexExpr); ok { // generic receiver
		typ = idx.X
	}
	id, ok := typ.(*ast.Ident)
	return ok && id.IsExported()
}

// auditGenDecl checks type/const/var declarations. A doc comment on the
// grouped declaration covers ungrouped specs; each exported spec without
// either a group comment or its own comment is reported. Exported fields
// of exported struct types are audited too.
func auditGenDecl(d *ast.GenDecl, report func(token.Pos, string, string)) {
	groupDoc := d.Doc.Text()
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && groupDoc == "" && s.Doc.Text() == "" && s.Comment.Text() == "" {
				report(s.Pos(), "type", s.Name.Name)
			}
			if st, ok := s.Type.(*ast.StructType); ok && s.Name.IsExported() {
				for _, f := range st.Fields.List {
					for _, name := range f.Names {
						if name.IsExported() && f.Doc.Text() == "" && f.Comment.Text() == "" {
							report(name.Pos(), "field", s.Name.Name+"."+name.Name)
						}
					}
				}
			}
		case *ast.ValueSpec:
			for _, name := range s.Names {
				if name.IsExported() && groupDoc == "" && s.Doc.Text() == "" && s.Comment.Text() == "" {
					kind := "var"
					if d.Tok == token.CONST {
						kind = "const"
					}
					report(name.Pos(), kind, name.Name)
				}
			}
		}
	}
}

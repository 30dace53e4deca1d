package testkit

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestHotPathLint enforces the two structural rules the zero-allocation
// hot path depends on, so a regression is caught at review time rather
// than by a benchmark drifting:
//
//  1. No map indexing, map ranging, or delete() in pdl or tl. The
//     steady-state path works on dense rings and bitmap words.
//  2. No function literals passed to scheduler entry points (At, After,
//     AtAction, CrossAction, Process, ProcessAction) in pdl or tl.
//     Scheduling a closure allocates per call; the hot path schedules
//     preallocated Action values instead.
//
// The check is typed (go/types over the real package sources), so a map
// hidden behind a named type or a generic type parameter is still caught,
// while slice/array indexing and generic instantiation are not false
// positives.
func TestHotPathLint(t *testing.T) {
	fset := token.NewFileSet()
	pkgs := loadLintPackages(t, fset)

	var violations []string
	report := func(pos token.Pos, format string, args ...any) {
		p := fset.Position(pos)
		violations = append(violations, fmt.Sprintf("%s:%d: %s",
			filepath.Base(p.Filename), p.Line, fmt.Sprintf(format, args...)))
	}

	for _, pkg := range pkgs {
		for _, file := range pkg.files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.IndexExpr:
					if isMapType(pkg.info, n.X) {
						report(n.Pos(), "map indexing on the hot path")
					}
				case *ast.RangeStmt:
					if n.X != nil && isMapType(pkg.info, n.X) {
						report(n.Pos(), "map range on the hot path")
					}
				case *ast.CallExpr:
					if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "delete" {
						if _, builtin := pkg.info.Uses[id].(*types.Builtin); builtin {
							report(n.Pos(), "map delete on the hot path")
						}
					}
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
						switch sel.Sel.Name {
						case "At", "After", "AtAction", "CrossAction", "Process", "ProcessAction":
							for _, arg := range n.Args {
								if _, closure := arg.(*ast.FuncLit); closure {
									report(arg.Pos(), "closure passed to %s: schedule a preallocated Action",
										sel.Sel.Name)
								}
							}
						}
					}
				}
				return true
			})
		}
	}

	sort.Strings(violations)
	for _, v := range violations {
		t.Error(v)
	}
}

// lintPkg is one type-checked package under lint.
type lintPkg struct {
	files []*ast.File
	info  *types.Info
}

// isMapType reports whether the expression's type (through named types
// and type parameters' core types) is a map.
func isMapType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	typ := tv.Type.Underlying()
	if tp, ok := typ.(*types.TypeParam); ok {
		typ = tp.Underlying()
	}
	_, isMap := typ.(*types.Map)
	return isMap
}

// lintImporter resolves module-local packages from the pre-checked set
// and everything else (the standard library) from source.
type lintImporter struct {
	local    map[string]*types.Package
	fallback types.Importer
}

func (i lintImporter) Import(path string) (*types.Package, error) {
	if p, ok := i.local[path]; ok {
		return p, nil
	}
	return i.fallback.Import(path)
}

// loadLintPackages parses and type-checks pdl and tl (plus their
// module-local dependencies, in topological order) and returns the two
// packages under lint.
func loadLintPackages(t *testing.T, fset *token.FileSet) []*lintPkg {
	t.Helper()
	order := []struct {
		path, dir string
		lint      bool
	}{
		{"falcon/internal/sim", "../sim", false},
		{"falcon/internal/falcon/wire", "../falcon/wire", false},
		{"falcon/internal/falcon/cc", "../falcon/cc", false},
		{"falcon/internal/falcon/fae", "../falcon/fae", false},
		{"falcon/internal/falcon/pdl", "../falcon/pdl", true},
		{"falcon/internal/falcon/tl", "../falcon/tl", true},
	}
	local := map[string]*types.Package{}
	imp := lintImporter{local: local, fallback: importer.ForCompiler(fset, "source", nil)}

	var out []*lintPkg
	for _, p := range order {
		entries, err := os.ReadDir(p.dir)
		if err != nil {
			t.Fatalf("reading %s: %v", p.dir, err)
		}
		var files []*ast.File
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(p.dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatalf("parsing %s: %v", name, err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Uses:  map[*ast.Ident]types.Object{},
			Defs:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.path, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.path, err)
		}
		local[p.path] = pkg
		if p.lint {
			out = append(out, &lintPkg{files: files, info: info})
		}
	}
	return out
}

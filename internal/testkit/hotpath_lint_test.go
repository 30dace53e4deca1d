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

// TestHotPathLint enforces the structural rules the zero-allocation hot
// path depends on, so a regression is caught at review time rather than by
// a benchmark drifting:
//
//  1. No map indexing, map ranging, or delete() in ring, pdl, tl, ulp,
//     roce, fae or core. The steady-state path works on dense rings,
//     bitmap words and per-node connection keys.
//  2. No function literals passed to scheduler entry points (At, After,
//     AtAction, Process, ProcessAction) in ring, pdl, tl, ulp, roce or
//     core. Scheduling a closure allocates per call; the hot path
//     schedules preallocated Action values instead. fae is held to rule
//     1 only: Post captures its event in a closure under a nonzero
//     ResponseDelay, which only Figure 22b's delay sweep sets.
//  3. No non-test struct under internal/, outside internal/sim, has a
//     field pointing to its own type: the shape of a hand-rolled
//     intrusive free list. Pooled objects recycle through sim.FreeList.
//
// Rules 1 and 2 are typed (go/types over the real package sources), so a
// map hidden behind a named type or a generic type parameter is still
// caught, while slice/array indexing and generic instantiation are not
// false positives. Rule 3 is syntactic: it matches a field of type *T or
// *T[...] inside the declaration of T.
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
		maps, closures := pkg.rules&ruleNoMaps != 0, pkg.rules&ruleNoClosures != 0
		for _, file := range pkg.files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.IndexExpr:
					if maps && isMapType(pkg.info, n.X) {
						report(n.Pos(), "map indexing on the hot path")
					}
				case *ast.RangeStmt:
					if maps && n.X != nil && isMapType(pkg.info, n.X) {
						report(n.Pos(), "map range on the hot path")
					}
				case *ast.CallExpr:
					if id, ok := n.Fun.(*ast.Ident); ok && maps && id.Name == "delete" {
						if _, builtin := pkg.info.Uses[id].(*types.Builtin); builtin {
							report(n.Pos(), "map delete on the hot path")
						}
					}
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && closures {
						switch sel.Sel.Name {
						case "At", "After", "AtAction", "Process", "ProcessAction":
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

	violations = append(violations, selfPointerStructs(t)...)

	sort.Strings(violations)
	for _, v := range violations {
		t.Error(v)
	}
}

// selfPointerStructs applies rule 3 to every non-test file under
// internal/ except internal/sim, which owns the free list and the timing
// wheel's chunk chain.
func selfPointerStructs(t *testing.T) []string {
	t.Helper()
	root := repoRootDir(t)
	internal := filepath.Join(root, "internal")
	fset := token.NewFileSet()
	var violations []string
	err := filepath.WalkDir(internal, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == filepath.Join(internal, "sim") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fl := range st.Fields.List {
				star, ok := fl.Type.(*ast.StarExpr)
				if !ok {
					continue
				}
				elem := star.X
				switch x := elem.(type) {
				case *ast.IndexExpr:
					elem = x.X
				case *ast.IndexListExpr:
					elem = x.X
				}
				if id, ok := elem.(*ast.Ident); ok && id.Name == ts.Name.Name {
					violations = append(violations, fmt.Sprintf("%s:%d: %s points to its own type: recycle through sim.FreeList",
						rel, fset.Position(fl.Pos()).Line, ts.Name.Name))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return violations
}

// lintRules selects which of rules 1 and 2 a package is held to.
type lintRules uint8

const (
	ruleNoMaps lintRules = 1 << iota
	ruleNoClosures

	ruleHotPath = ruleNoMaps | ruleNoClosures
)

// lintPkg is one type-checked package under lint.
type lintPkg struct {
	files []*ast.File
	info  *types.Info
	rules lintRules
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

// loadLintPackages parses and type-checks ring, pdl, tl, ulp, roce, fae
// and core (plus their module-local dependencies, in topological order)
// and returns the seven packages under lint.
func loadLintPackages(t *testing.T, fset *token.FileSet) []*lintPkg {
	t.Helper()
	order := []struct {
		path, dir string
		rules     lintRules
	}{
		{"falcon/internal/sim", "../sim", 0},
		{"falcon/internal/falcon/wire", "../falcon/wire", 0},
		{"falcon/internal/falcon/cc", "../falcon/cc", 0},
		{"falcon/internal/falcon/fae", "../falcon/fae", ruleNoMaps},
		{"falcon/internal/falcon/ring", "../falcon/ring", ruleHotPath},
		{"falcon/internal/falcon/pdl", "../falcon/pdl", ruleHotPath},
		{"falcon/internal/falcon/tl", "../falcon/tl", ruleHotPath},
		{"falcon/internal/ulp", "../ulp", ruleHotPath},
		{"falcon/internal/routing", "../routing", 0},
		{"falcon/internal/netsim", "../netsim", 0},
		{"falcon/internal/nic", "../nic", 0},
		{"falcon/internal/psp", "../psp", 0},
		{"falcon/internal/roce", "../roce", ruleHotPath},
		{"falcon/internal/core", "../core", ruleHotPath},
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
		if p.rules != 0 {
			out = append(out, &lintPkg{files: files, info: info, rules: p.rules})
		}
	}
	return out
}

package testkit

import (
	"fmt"
	"go/ast"
	"go/build"
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

// configLintExempt names the Config fields the lint accepts with a single
// value in use, each with its reason. The test fails when an entry is no
// longer flagged, so the list cannot go stale.
var configLintExempt = map[string]string{
	"rdma.Config.WeaklyOrdered": "the paper's §4.4 iWARP mode: no figure runs it, but the rdma tests do, a lossy case included",
}

// TestConfigFieldsHaveWriters asserts that every exported field of every
// exported struct type named *Config under internal/ is a real option:
// something sets it to a value its own defaults do not. A field with a
// single value across the whole evaluation belongs in the package that
// reads it as a named constant, not in the configuration surface.
//
// The module's non-test packages and the benchmark module (bench/, which
// has its own go.mod and is outside `go build ./...`) are type-checked
// from source, so each write is attributed to the struct that declares
// the field; a same-named field elsewhere does not hide it. A write is an
// assignment or increment whose left-hand selector chain selects the
// field (x.F = …, x.F.G = …, x.F[k].G += …, x.F++) or a composite-literal
// entry for it, keyed or positional. _test.go files are not read: a value
// only a test sets is not a second value in use.
//
// A field passes when non-test code outside its own package writes it (a
// figure, a workload, the benchmark), or when two functions of its own
// package that return its Config type write it (nic.DefaultConfig and
// CX7LikeConfig). Writes elsewhere in its own package, such as a guard
// filling in a zero value, do not count.
func TestConfigFieldsHaveWriters(t *testing.T) {
	root := repoRootDir(t)
	l := &configLoader{
		root: root,
		fset: token.NewFileSet(),
		pkgs: map[string]*types.Package{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(root, path)
		_, err = l.Import(filepath.ToSlash(filepath.Join("falcon", rel)))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	// The fields under lint, keyed by their declaring object.
	type field struct {
		name string // pkg.Type.Field, pkg relative to internal/
		typ  *types.Named
	}
	fields := map[*types.Var]field{}
	for path, pkg := range l.pkgs {
		rel, ok := strings.CutPrefix(path, "falcon/internal/")
		if !ok || pkg == nil {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !strings.HasSuffix(name, "Config") {
				continue
			}
			named, _ := tn.Type().(*types.Named)
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok || named == nil {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					fields[f] = field{rel + "." + name + "." + f.Name(), named}
				}
			}
		}
	}

	// Who writes each field: outside its package, or which of its
	// package's Config-returning functions.
	outside := map[*types.Var]bool{}
	constructors := map[*types.Var]map[*types.Func]bool{}
	for _, f := range l.files {
		for _, decl := range f.ast.Decls {
			var fn *types.Func
			if fd, ok := decl.(*ast.FuncDecl); ok {
				fn, _ = f.info.Defs[fd.Name].(*types.Func)
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				for _, v := range fieldWrites(f.info, n) {
					fl, ok := fields[v]
					if !ok {
						continue
					}
					switch {
					case v.Pkg() != f.pkg:
						outside[v] = true
					case fn != nil && returns(fn, fl.typ):
						if constructors[v] == nil {
							constructors[v] = map[*types.Func]bool{}
						}
						constructors[v][fn] = true
					}
				}
				return true
			})
		}
	}

	if len(fields) == 0 {
		t.Fatal("no Config fields found under internal/")
	}
	seen := map[string]bool{}
	var unset []string
	for v, fl := range fields {
		seen[fl.name] = true
		if outside[v] || len(constructors[v]) >= 2 {
			if _, ok := configLintExempt[fl.name]; ok {
				t.Errorf("exemption %s is stale: the field now has a second writer", fl.name)
			}
			continue
		}
		if _, ok := configLintExempt[fl.name]; !ok {
			unset = append(unset, fl.name)
		}
	}
	for name := range configLintExempt {
		if !seen[name] {
			t.Errorf("exemption %s is stale: no such Config field", name)
		}
	}
	sort.Strings(unset)
	if len(unset) > 0 {
		t.Fatalf("%d Config fields have one value in use (make each a named constant in the package that reads it):\n  %s",
			len(unset), strings.Join(unset, "\n  "))
	}
}

// fieldWrites returns the struct fields node n writes: the fields selected
// along an assignment or increment target's selector chain, and the fields
// a struct composite literal sets.
func fieldWrites(info *types.Info, n ast.Node) []*types.Var {
	var out []*types.Var
	chain := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.SelectorExpr:
				if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
					out = append(out, sel.Obj().(*types.Var))
				}
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.ParenExpr:
				e = x.X
			default:
				return
			}
		}
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			chain(lhs)
		}
	case *ast.IncDecStmt:
		chain(n.X)
	case *ast.CompositeLit:
		tv, ok := info.Types[n]
		if !ok {
			break
		}
		st, ok := tv.Type.Underlying().(*types.Struct)
		if !ok {
			break
		}
		for i, elt := range n.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
					out = append(out, v)
				}
			} else if i < st.NumFields() {
				out = append(out, st.Field(i))
			}
		}
	}
	return out
}

// returns reports whether fn has a result of type t or *t.
func returns(fn *types.Func, t *types.Named) bool {
	res := fn.Type().(*types.Signature).Results()
	for i := 0; i < res.Len(); i++ {
		r := res.At(i).Type()
		if p, ok := r.(*types.Pointer); ok {
			r = p.Elem()
		}
		if types.Identical(r, t) {
			return true
		}
	}
	return false
}

// configLoader type-checks the falcon module's packages (and the benchmark
// module, falcon/bench) from their non-test sources, once each, so every
// field has one declaring object; other imports go to the standard
// library's source importer.
type configLoader struct {
	root  string
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*types.Package // nil while being checked or without Go files
	files []configFile
}

type configFile struct {
	ast  *ast.File
	pkg  *types.Package
	info *types.Info
}

func (l *configLoader) Import(path string) (*types.Package, error) {
	rel, ok := strings.CutPrefix(path, "falcon/")
	if path == "falcon" {
		rel, ok = ".", true
	}
	if !ok {
		return l.std.Import(path)
	}
	if pkg, done := l.pkgs[path]; done {
		if pkg == nil {
			return nil, fmt.Errorf("%s: no Go files or import cycle", path)
		}
		return pkg, nil
	}
	l.pkgs[path] = nil
	dir := filepath.Join(l.root, filepath.FromSlash(rel))
	bp, err := build.ImportDir(dir, 0)
	if _, none := err.(*build.NoGoError); none {
		return nil, nil
	} else if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	for _, f := range files {
		l.files = append(l.files, configFile{f, pkg, info})
	}
	return pkg, nil
}

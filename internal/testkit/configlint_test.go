package testkit

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestConfigFieldsHaveWriters asserts that every exported field of every
// exported struct type named *Config under internal/ is a real option:
// something other than its own default constructor sets it. A field only
// one Default* function writes has a single value across the whole
// evaluation, so it belongs in the package that reads it as a named
// constant, not in the configuration surface.
//
// Every .go file under internal/ is parsed, tests included. A write to
// field F is an assignment or increment whose left-hand selector chain
// names F (x.F = …, x.F.G = …, x.F[k].G += …, x.F++) or a keyed
// composite-literal entry F: …. A field passes when a function whose name
// does not start with "Default" writes it (a test, a figure, a second
// profile such as nic.CX7LikeConfig), or when two distinct Default*
// functions write it (workload.DefaultGromacs and DefaultWRF for
// HPCConfig).
//
// Matching is by field name at the syntax level, without type
// information: a write to any field or key of the same name counts, so a
// single-valued field whose name another, settable field also uses
// (WindowSize, MTU, ...) slips through. The gate catches new single-valued
// fields with distinct names; it does not prove every field is settable.
func TestConfigFieldsHaveWriters(t *testing.T) {
	root := repoRootDir(t)
	internal := filepath.Join(root, "internal")

	type field struct{ pkg, typ, name string }
	var fields []field
	// writers maps a field name to the set of functions writing it. A
	// function is keyed by its package directory too, so same-named
	// constructors in different packages stay distinct.
	type function struct{ pkg, name string }
	writers := map[string]map[function]bool{}
	write := func(name string, fn function) {
		if writers[name] == nil {
			writers[name] = map[function]bool{}
		}
		writers[name][fn] = true
	}

	fset := token.NewFileSet()
	err := filepath.WalkDir(internal, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg, _ := filepath.Rel(internal, filepath.Dir(path))
		for _, decl := range f.Decls {
			fn := function{pkg, "<package scope>"}
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				fn.name = decl.Name.Name
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || !ts.Name.IsExported() || !strings.HasSuffix(ts.Name.Name, "Config") {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, fl := range st.Fields.List {
						for _, id := range fl.Names {
							if id.IsExported() {
								fields = append(fields, field{pkg, ts.Name.Name, id.Name})
							}
						}
					}
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						for _, name := range selectorChain(lhs) {
							write(name, fn)
						}
					}
				case *ast.IncDecStmt:
					for _, name := range selectorChain(n.X) {
						write(name, fn)
					}
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						write(id.Name, fn)
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var unset []string
	for _, f := range fields {
		defaults, other := 0, false
		for fn := range writers[f.name] {
			if strings.HasPrefix(fn.name, "Default") {
				defaults++
			} else {
				other = true
			}
		}
		if !other && defaults < 2 {
			unset = append(unset, f.pkg+"."+f.typ+"."+f.name)
		}
	}
	sort.Strings(unset)
	if len(unset) > 0 {
		t.Fatalf("%d Config fields only their own default writes (make each a named constant in the package that reads it):\n  %s",
			len(unset), strings.Join(unset, "\n  "))
	}
}

// selectorChain returns the field names along an assignment target's
// selector chain: x.F[k].G yields G and F. Index, star and paren
// expressions are looked through; the chain's root identifier is not a
// field and is not returned.
func selectorChain(e ast.Expr) []string {
	var names []string
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			names = append(names, x.Sel.Name)
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return names
		}
	}
}

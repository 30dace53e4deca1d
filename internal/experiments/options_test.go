package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestFiguresBuildThroughOptions holds every figure to Options.newSim:
// outside options.go no non-test file may construct a simulator directly.
// A simulator built any other way would not count its events into the
// figure's total.
func TestFiguresBuildThroughOptions(t *testing.T) {
	t.Parallel()
	banned := map[string]bool{"sim.New": true, "sim.NewWithScheduler": true}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if name == "options.go" || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && banned[pkg.Name+"."+sel.Sel.Name] {
				t.Errorf("%s: %s.%s bypasses the Options helpers", fset.Position(sel.Pos()), pkg.Name, sel.Sel.Name)
			}
			return true
		})
	}
}

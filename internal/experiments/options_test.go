package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestFiguresBuildThroughOptions holds every figure to Options.row. In a
// non-test file of this package:
//   - only row.go constructs a simulator (sim.New, sim.NewWithScheduler),
//     since a simulator built any other way would not count its events
//     into the figure's total;
//   - nothing calls a newSim, the per-simulator helper the row replaced;
//   - only row.go and runner.go read Options.Tel: a figure reaches its
//     telemetry through the row's registry and series hooks;
//   - no string literal starts with a figure name and a slash, since a
//     row's path is the one place a metric prefix is formatted.
func TestFiguresBuildThroughOptions(t *testing.T) {
	t.Parallel()
	banned := map[string]bool{"sim.New": true, "sim.NewWithScheduler": true}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				pos := fset.Position(n.Pos())
				if pkg, ok := n.X.(*ast.Ident); ok && banned[pkg.Name+"."+n.Sel.Name] && name != "row.go" {
					t.Errorf("%s: %s.%s bypasses Options.row", pos, pkg.Name, n.Sel.Name)
				}
				switch {
				case n.Sel.Name == "newSim":
					t.Errorf("%s: newSim bypasses Options.row", pos)
				case n.Sel.Name == "Tel" && name != "row.go" && name != "runner.go":
					t.Errorf("%s: reads Options.Tel; register through the row instead", pos)
				}
			case *ast.BasicLit:
				if n.Kind != token.STRING {
					break
				}
				s, err := strconv.Unquote(n.Value)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range registry {
					if strings.HasPrefix(s, e.Name+"/") {
						t.Errorf("%s: %q formats a metric prefix; use the row's path", fset.Position(n.Pos()), s)
					}
				}
			}
			return true
		})
	}
}

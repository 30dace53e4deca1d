package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestFiguresBuildThroughOptions holds every figure to the Options
// helpers: outside options.go no non-test file may construct a simulator,
// a topology or a message-passing job directly. A direct call would run
// single-loop over ECMP whatever the Options say, and its events would
// be missing from the figure's count.
func TestFiguresBuildThroughOptions(t *testing.T) {
	t.Parallel()
	banned := map[string]bool{
		"sim.New": true, "sim.NewWithScheduler": true,
		"netsim.New": true, "netsim.PointToPoint": true, "netsim.Star": true,
		"netsim.Clos": true, "netsim.TwoRack": true,
		"workload.BuildFalconJob": true, "workload.BuildSWJob": true,
	}
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

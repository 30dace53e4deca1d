package testkit

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestNetsimClosureFree walks the fabric fast-path packages —
// internal/netsim, internal/routing, internal/chaos and internal/sim
// itself — and fails if any non-test file
// schedules a capture closure on the simulator: a call like
// sim.At(t, func(){...}) or sim.After(d, func(){...}) with a function
// literal argument. The fabric fast path must stay allocation-free by
// construction: per-frame work is scheduled as pooled typed events through
// sim.AtAction, and a closure
// literal anywhere on that path would reintroduce one heap allocation per
// hop. Test files are exempt so unit tests can still drive the simulator
// directly.
func TestNetsimClosureFree(t *testing.T) {
	var violations []string
	for _, pkgDir := range []string{"netsim", "routing", "chaos", "sim"} {
		dir := filepath.Join(moduleRoot(t), "internal", pkgDir)
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for path, f := range pkg.Files {
				if strings.HasSuffix(path, "_test.go") {
					continue
				}
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					switch sel.Sel.Name {
					case "At", "After", "AtAction":
					default:
						return true
					}
					for _, arg := range call.Args {
						if _, isLit := arg.(*ast.FuncLit); isLit {
							violations = append(violations,
								fset.Position(call.Pos()).String()+": "+sel.Sel.Name+" with closure literal")
						}
					}
					return true
				})
			}
		}
	}
	if len(violations) > 0 {
		t.Fatalf("closure scheduling inside a fast-path package (use pooled typed events via sim.AtAction):\n  %s",
			strings.Join(violations, "\n  "))
	}
}

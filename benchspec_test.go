package incastproxy

import (
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// benchSpecSource is the benchmark's spec constructors; allocSpecCopy is the
// copy the workload package's allocation tests run, since the benchmark is
// its own module and cannot be imported from there.
var (
	benchSpecSource = filepath.Join("bench", "des.go")
	allocSpecCopy   = filepath.Join("internal", "workload", "alloc_test.go")
)

// specFuncs are the constructors copied from benchSpecSource.
var specFuncs = []string{"largeFabric", "epochSpec", "cellSpec"}

// parseGo parses path without comments.
func parseGo(t *testing.T, fset *token.FileSet, path string) *ast.File {
	t.Helper()
	f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// funcDecl returns f's top-level function name, or fails the test.
func funcDecl(t *testing.T, f *ast.File, path, name string) *ast.FuncDecl {
	t.Helper()
	for _, decl := range f.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.Name == name {
			return fn
		}
	}
	t.Fatalf("%s has no func %s", path, name)
	return nil
}

// unqualified prints node with the workload package's qualifier dropped and
// every run of white space folded to one space, so a copy made inside that
// package reads the same as the original.
func unqualified(t *testing.T, fset *token.FileSet, node ast.Node) string {
	t.Helper()
	var b strings.Builder
	if err := printer.Fprint(&b, fset, node); err != nil {
		t.Fatal(err)
	}
	return strings.Join(strings.Fields(strings.ReplaceAll(b.String(), "workload.", "")), " ")
}

// benchSpecs returns the spec expression newDESWorkload gives each workload
// name, from its `case "name": return &desWorkload{spec: ...}` clauses.
func benchSpecs(t *testing.T, fset *token.FileSet, f *ast.File) map[string]string {
	t.Helper()
	specs := map[string]string{}
	ast.Inspect(funcDecl(t, f, benchSpecSource, "newDESWorkload"), func(n ast.Node) bool {
		clause, ok := n.(*ast.CaseClause)
		if !ok || len(clause.List) != 1 {
			return true
		}
		lit, ok := clause.List[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		name, _ := strconv.Unquote(lit.Value)
		ast.Inspect(clause, func(n ast.Node) bool {
			if kv, ok := n.(*ast.KeyValueExpr); ok {
				if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "spec" {
					specs[name] = unqualified(t, fset, kv.Value)
				}
			}
			return true
		})
		return false
	})
	return specs
}

// copiedSpecs returns the spec expression benchmarkWorkloads gives each
// workload name, from its `{"name", spec}` elements.
func copiedSpecs(t *testing.T, fset *token.FileSet, f *ast.File) map[string]string {
	t.Helper()
	specs := map[string]string{}
	ast.Inspect(funcDecl(t, f, allocSpecCopy, "benchmarkWorkloads"), func(n ast.Node) bool {
		elt, ok := n.(*ast.CompositeLit)
		if !ok || len(elt.Elts) != 2 {
			return true
		}
		lit, ok := elt.Elts[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		name, _ := strconv.Unquote(lit.Value)
		specs[name] = unqualified(t, fset, elt.Elts[1])
		return false
	})
	return specs
}

// The workload package's allocation budget and `make allocsites` measure the
// benchmark's simulator workloads through a copy of their specs. A change to
// the benchmark's specs that the copy does not follow would leave both
// measuring something the benchmark no longer runs.
func TestAllocSpecsAreTheBenchmarks(t *testing.T) {
	fset := token.NewFileSet()
	bench := parseGo(t, fset, benchSpecSource)
	copied := parseGo(t, fset, allocSpecCopy)
	for _, name := range specFuncs {
		want := unqualified(t, fset, funcDecl(t, bench, benchSpecSource, name))
		if got := unqualified(t, fset, funcDecl(t, copied, allocSpecCopy, name)); got != want {
			t.Errorf("%s's %s differs from %s's:\n got  %s\n want %s", allocSpecCopy, name, benchSpecSource, got, want)
		}
	}
	want, got := benchSpecs(t, fset, bench), copiedSpecs(t, fset, copied)
	if len(got) == 0 {
		t.Fatalf("found no workload in %s's benchmarkWorkloads", allocSpecCopy)
	}
	for name, spec := range got {
		if want[name] == "" {
			t.Errorf("%s runs %s, which %s's newDESWorkload does not define", allocSpecCopy, name, benchSpecSource)
		} else if spec != want[name] {
			t.Errorf("%s: %s runs %s, %s runs %s", name, allocSpecCopy, spec, benchSpecSource, want[name])
		}
	}
	for name := range want {
		if got[name] == "" {
			t.Errorf("%s's newDESWorkload defines %s, which %s does not run", benchSpecSource, name, allocSpecCopy)
		}
	}
}

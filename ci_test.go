package incastproxy

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// ciAllocStep names the CI step that reruns every allocation-bound test alone,
// three times over.
const ciAllocStep = "name: Allocation-bound tests (3 repetitions each)"

// ciAllocBoundTests returns the pkg:TestName entries of that step's loop, pkg
// relative to internal/.
func ciAllocBoundTests(t *testing.T) []string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	at := strings.Index(text, ciAllocStep)
	if at < 0 {
		t.Fatalf("ci.yml has no step %q", ciAllocStep)
	}
	text = text[at:]
	begin, end := strings.Index(text, "for t in "), strings.Index(text, "; do")
	if begin < 0 || end < begin {
		t.Fatalf("ci.yml's %q step has no `for t in ...; do` loop", ciAllocStep)
	}
	return regexp.MustCompile(`[\w/]+:Test\w+`).FindAllString(text[begin:end], -1)
}

// allocBoundTests returns pkg:TestName for every top-level Test function in a
// _test.go file under internal/ whose body calls testing.AllocsPerRun.
func allocBoundTests(t *testing.T) []string {
	t.Helper()
	var found []string
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		testingPkg := "" // the file's name for package testing
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "testing" {
				testingPkg = "testing"
				if imp.Name != nil {
					testingPkg = imp.Name.Name
				}
			}
		}
		if testingPkg == "" {
			return nil
		}
		pkg := filepath.ToSlash(filepath.Dir(strings.TrimPrefix(path, "internal"+string(filepath.Separator))))
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || fn.Body == nil || !strings.HasPrefix(fn.Name.Name, "Test") {
				continue
			}
			calls := false
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "AllocsPerRun" {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == testingPkg {
						calls = true
					}
				}
				return !calls
			})
			if calls {
				found = append(found, pkg+":"+fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return found
}

// CI's allocation-bound step reruns a hand-kept list of tests. A test that
// holds an AllocsPerRun count to a bound and is missing from it runs only
// once, in the full suite, where a GC cycle can inflate its count; a listed
// test that no longer exists makes `go test -run` match nothing and pass.
func TestCIListsEveryAllocBoundTest(t *testing.T) {
	listed := ciAllocBoundTests(t)
	found := allocBoundTests(t)
	if len(found) == 0 {
		t.Fatal("found no test under internal/ that calls testing.AllocsPerRun")
	}
	for _, name := range found {
		if !slices.Contains(listed, name) {
			t.Errorf("%s calls testing.AllocsPerRun but is not in ci.yml's %q list", name, ciAllocStep)
		}
	}
	for _, name := range listed {
		if !slices.Contains(found, name) {
			t.Errorf("ci.yml's %q list names %s, which is no test under internal/ that calls testing.AllocsPerRun",
				ciAllocStep, name)
		}
	}
}

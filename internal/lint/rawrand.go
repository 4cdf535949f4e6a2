package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Rawrand bans math/rand from non-test code, internal/rng included, and
// ad-hoc seed arithmetic in rng.New. Every random draw in the repository
// comes from an rng.Source whose seed comes off an rng.DeriveSeed label path:
// math/rand's global generator is process-wide state that breaks run-to-run
// reproducibility, a second generator is a second stream to keep seeded
// right, and hand-rolled seed arithmetic (seed + run*7919) produces
// correlated streams — the exact bug class PR 3 fixed twice.
var Rawrand = &Analyzer{
	Name: "rawrand",
	Doc: "forbid importing math/rand outside tests and ad-hoc seed arithmetic " +
		"in rng.New (draw from an rng.Source; derive seeds with rng.DeriveSeed label paths)",
	Run: runRawrand,
}

func runRawrand(pass *Pass) {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			if p := strings.Trim(imp.Path.Value, `"`); p == "math/rand" || p == "math/rand/v2" {
				pass.Reportf(imp.Pos(),
					"import of %s: draw from an rng.Source (rng.New(rng.DeriveSeed(...)))", p)
			}
		}
		ns := importNames(f, "incastproxy/internal/rng")
		if len(ns) == 0 {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkSeedArg(pass, call, ns[0])
			}
			return true
		})
	}
}

// shadowed reports whether ident resolves to something other than a package
// name (a local variable shadowing the import). With partial type info the
// syntactic match stands.
func shadowed(pass *Pass, ident *ast.Ident) bool {
	if obj := pass.Info.Uses[ident]; obj != nil {
		_, isPkg := obj.(*types.PkgName)
		return !isPkg
	}
	return false
}

// checkSeedArg flags an rng.New call whose argument is ad-hoc arithmetic — a
// top-level binary expression like seed+run*7919. Seeds must arrive whole: a
// literal, a variable, or an rng.DeriveSeed call. Additive/multiplicative
// schemes correlate the streams of adjacent runs, which is exactly what
// DeriveSeed's SplitMix64 label paths exist to prevent.
func checkSeedArg(pass *Pass, call *ast.CallExpr, rngName string) {
	if len(call.Args) == 0 {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "New" {
		return
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok || pkg.Name != rngName || shadowed(pass, pkg) {
		return
	}
	arg := ast.Unparen(call.Args[0])
	if bin, ok := arg.(*ast.BinaryExpr); ok && arithmeticOp(bin.Op) {
		pass.Reportf(arg.Pos(),
			"ad-hoc seed arithmetic in %s.New: derive child seeds with rng.DeriveSeed(base, labels...) instead",
			pkg.Name)
	}
}

func arithmeticOp(op token.Token) bool {
	switch op {
	case token.ADD, token.SUB, token.MUL, token.QUO, token.REM,
		token.XOR, token.AND, token.OR, token.SHL, token.SHR, token.AND_NOT:
		return true
	}
	return false
}

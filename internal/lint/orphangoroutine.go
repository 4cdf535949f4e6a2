package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Orphangoroutine flags `go` statements with no visible shutdown
// coordination: the spawned function neither registers with a WaitGroup,
// touches a channel (send, receive, close, select), nor carries a
// context.Context. Such goroutines have no way to be joined or cancelled —
// the goroutine-leak class cliutil.LeakCheck catches at run time — so in the
// packages that run real concurrency they must either coordinate or carry a
// //lint:ignore with the lifecycle argument.
//
// The check is a heuristic over the go statement's call expression (and
// function-literal body, when there is one): coordination passed in less
// visible ways deserves the suppression comment anyway, as documentation.
var Orphangoroutine = &Analyzer{
	Name: "orphangoroutine",
	Doc: "flag go statements whose function captures no done channel, " +
		"context, or WaitGroup registration in the live-concurrency packages",
	Match: func(path string) bool {
		for _, p := range []string{"internal/relay", "internal/chaosnet", "internal/runner"} {
			if strings.HasSuffix(path, p) {
				return true
			}
		}
		return false
	},
	Run: runOrphangoroutine,
}

func runOrphangoroutine(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if !coordinated(pass, g.Call) {
				pass.Reportf(g.Pos(),
					"goroutine has no shutdown coordination (no WaitGroup, done channel, select, or context): join it or document its lifecycle with a suppression")
			}
			return true
		})
	}
}

// coordinated scans the go statement's call — arguments, callee, and the
// whole body when the callee is a function literal — for any lifecycle
// signal.
func coordinated(pass *Pass, call *ast.CallExpr) bool {
	found := false
	ast.Inspect(call, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt, *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				found = true
			}
		case *ast.CallExpr:
			switch fn := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				if fn.Name == "close" {
					found = true
				}
			case *ast.SelectorExpr:
				// WaitGroup registration / join, or ctx.Done().
				switch fn.Sel.Name {
				case "Done", "Wait", "Add":
					found = true
				}
			}
		case ast.Expr:
			// Any value of channel or context.Context type in scope counts:
			// the goroutine can observe shutdown through it.
			if t := pass.TypeOf(n); t != nil && (isChan(t) || isContext(t)) {
				found = true
			}
		}
		return !found
	})
	return found
}

func isChan(t types.Type) bool {
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

func isContext(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

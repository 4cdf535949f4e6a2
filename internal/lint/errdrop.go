package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Errdrop flags write/encode calls whose error result is silently discarded
// in the wire, relay, and obs packages, in cmd/figures, cmd/incastsim,
// cmd/proxybench and cmd/relayd, and in cliutil, whose Prog.Printf they print
// through — the paths that put bytes on sockets and rows in artifacts. A dropped short-write there surfaces later as a truncated
// trace, a half-written manifest, a peer stuck mid-frame, or a committed
// figure table cut short by a run that exited 0.
//
// Flagged: a bare statement (or go/defer) calling a function named Write*,
// Encode*, Fprint*, or Flush whose final result is an error. Not flagged:
// explicit discards (`_, _ = c.Write(b)`) — visible acknowledgment is the
// point — and sinks that are documented never to fail: strings.Builder,
// bytes.Buffer, and hash.Hash receivers, or fmt.Fprint* into those.
var Errdrop = &Analyzer{
	Name: "errdrop",
	Doc: "flag discarded errors from write/encode/flush calls on the wire, " +
		"relay, obs, cliutil, cmd/figures, cmd/incastsim, cmd/proxybench and cmd/relayd output paths",
	Match: func(path string) bool {
		for _, p := range []string{"internal/wire", "internal/relay", "internal/obs", "internal/cliutil", "cmd/figures", "cmd/incastsim", "cmd/proxybench", "cmd/relayd"} {
			if strings.HasSuffix(path, p) {
				return true
			}
		}
		return false
	},
	Run: runErrdrop,
}

func runErrdrop(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch n := n.(type) {
			case *ast.ExprStmt:
				call, _ = n.X.(*ast.CallExpr)
			case *ast.GoStmt:
				call = n.Call
			case *ast.DeferStmt:
				call = n.Call
			}
			if call == nil {
				return true
			}
			name := errdropName(call)
			if name == "" {
				return true
			}
			if !returnsError(pass, call) || neverFails(pass, call) {
				return true
			}
			pass.Reportf(call.Pos(),
				"error result of %s is discarded on an output path: handle it or discard explicitly (_, _ =) with a reason",
				calleeName(call))
			return true
		})
	}
}

// errdropName returns the callee's bare name when it matches the
// write/encode family, else "".
func errdropName(call *ast.CallExpr) string {
	var name string
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name = fn.Name
	case *ast.SelectorExpr:
		name = fn.Sel.Name
	default:
		return ""
	}
	switch {
	case strings.HasPrefix(name, "Write"),
		strings.HasPrefix(name, "Encode"),
		strings.HasPrefix(name, "Fprint"),
		name == "Flush":
		return name
	}
	return ""
}

// returnsError reports whether the call's final result is of type error.
// Without type info the name match alone is too noisy, so it returns false.
func returnsError(pass *Pass, call *ast.CallExpr) bool {
	t := pass.TypeOf(call.Fun)
	if t == nil {
		return false
	}
	sig, ok := t.Underlying().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	return types.Identical(last, types.Universe.Lookup("error").Type())
}

// neverFails exempts sinks documented never to return a write error:
// methods on strings.Builder, bytes.Buffer, and hash.Hash values, and
// fmt.Fprint* whose destination is one of those.
func neverFails(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if strings.HasPrefix(sel.Sel.Name, "Fprint") {
		if len(call.Args) == 0 {
			return false
		}
		return infallibleSink(pass.TypeOf(call.Args[0]))
	}
	return infallibleSink(pass.TypeOf(sel.X))
}

func infallibleSink(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj() == nil || named.Obj().Pkg() == nil {
		return false
	}
	pkg, name := named.Obj().Pkg().Path(), named.Obj().Name()
	switch {
	case pkg == "strings" && name == "Builder",
		pkg == "bytes" && name == "Buffer",
		pkg == "hash":
		return true
	}
	return false
}

package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// maporderSinks are method/function names that emit ordered output: bytes on
// a writer, rows in an encoder, or events on a tracer. Emitting one of these
// per map iteration bakes Go's randomized map order into the artifact.
// Commutative metric updates (counter.Add) are deliberately absent: they
// fold, so iteration order cannot reach the output.
var maporderSinks = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Encode": true, "Fprintf": true, "Fprint": true, "Fprintln": true,
	"Printf": true, "Print": true, "Println": true,
	"Emit": true, "Instant": true, "Annotate": true, "StartSpan": true,
	"Observe": true, "Record": true,
}

// Maporder flags a `range` over a map whose body feeds an ordered output —
// appending to a slice that is never subsequently sorted (directly, or by
// threading it through a callee: x = f(..., x, ...)), writing to an
// encoder/writer, or emitting trace events. Map iteration order is
// randomized per run, so any of these silently breaks the byte-identical
// guarantee on figures, manifests, and traces. The blessed patterns are
// collect-keys-then-sort (the append is followed by a sort call on the same
// variable) and folding into order-insensitive aggregates.
var Maporder = &Analyzer{
	Name: "maporder",
	Doc: "flag range-over-map bodies that append to an unsorted slice, write " +
		"to an encoder/writer, or emit trace events (sort keys first)",
	Run: runMaporder,
}

func runMaporder(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				// Reached only for package-level literals (var x = func(){…});
				// literals inside a FuncDecl are covered by its check, which
				// stops the outer walk before descending here.
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				checkFuncMapRanges(pass, body)
			}
			return false
		})
	}
}

// checkFuncMapRanges scans one function body for map ranges, using the whole
// body as the horizon for was-it-sorted-afterwards checks.
func checkFuncMapRanges(pass *Pass, body *ast.BlockStmt) {
	sorts := collectSortCalls(pass, body)
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRangeBody(pass, rs, sorts)
		return true
	})
}

// sortCall is one call whose name suggests sorting, with the root objects of
// its arguments (sortNamed(s.Counters) → the object of s).
type sortCall struct {
	end  ast.Node
	args map[types.Object]bool
}

// collectSortCalls gathers every call in body whose callee name mentions
// "sort" (sort.Slice, slices.SortFunc, a local sortNamed helper, ...).
func collectSortCalls(pass *Pass, body *ast.BlockStmt) []sortCall {
	var out []sortCall
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := calleeName(call)
		if !strings.Contains(strings.ToLower(name), "sort") {
			return true
		}
		sc := sortCall{end: call, args: make(map[types.Object]bool)}
		for _, a := range call.Args {
			if obj := rootObject(pass, a); obj != nil {
				sc.args[obj] = true
			}
		}
		out = append(out, sc)
		return true
	})
	return out
}

// calleeName renders a call's function name: "sort.Slice" -> "sort.Slice",
// "sortNamed" -> "sortNamed", method calls -> receiver-less "Name".
func calleeName(call *ast.CallExpr) string {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		if x, ok := fn.X.(*ast.Ident); ok {
			return x.Name + "." + fn.Sel.Name
		}
		return fn.Sel.Name
	}
	return ""
}

// rootObject resolves an expression to the object of its leftmost identifier:
// `stamps` → stamps, `s.Counters` → s, `&buf` → buf.
func rootObject(pass *Pass, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if pass.Info == nil {
				return nil
			}
			if obj := pass.Info.Uses[x]; obj != nil {
				return obj
			}
			return pass.Info.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// checkMapRangeBody flags ordered sinks inside one map-range body.
func checkMapRangeBody(pass *Pass, rs *ast.RangeStmt, sorts []sortCall) {
	// escapes reports whether appends to the slice rooted at e outlive the
	// loop unsorted: not declared inside the body (iteration-local, order
	// can't escape) and never passed to a sort afterwards.
	escapes := func(e ast.Expr) types.Object {
		obj := rootObject(pass, e)
		if obj == nil || obj.Pos() >= rs.Body.Pos() && obj.Pos() <= rs.Body.End() || sortedAfter(obj, rs, sorts) {
			return nil
		}
		return obj
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		// x = f(..., x, ...): a slice threaded through a callee that may
		// append to it is an append by another name.
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
			for i, rhs := range as.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || isBuiltinAppend(call) || !threads(pass, call, as.Lhs[i]) {
					continue
				}
				if obj := escapes(as.Lhs[i]); obj != nil {
					pass.Reportf(call.Pos(),
						"%s threaded through %s inside range over map with no subsequent sort: the callee may append in randomized iteration order (iterate sorted keys instead)",
						obj.Name(), calleeName(call))
				}
			}
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// append(dst, ...) to a slice that outlives the loop and is never
		// sorted afterwards.
		if isBuiltinAppend(call) {
			if obj := escapes(call.Args[0]); obj != nil {
				pass.Reportf(call.Pos(),
					"append to %s inside range over map with no subsequent sort: iteration order is randomized per run (sort before emitting)",
					obj.Name())
			}
			return true
		}
		// Writer/encoder/tracer emission per iteration.
		name := sinkName(call)
		if name != "" {
			pass.Reportf(call.Pos(),
				"%s inside range over map emits in randomized iteration order: iterate sorted keys instead",
				name)
		}
		return true
	})
}

func isBuiltinAppend(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "append" && len(call.Args) > 0
}

// threads reports whether call takes the slice-typed expression dst as an
// argument (the `losses = t.expire(f, ft, now, losses)` shape).
func threads(pass *Pass, call *ast.CallExpr, dst ast.Expr) bool {
	t := pass.TypeOf(dst)
	if t == nil {
		return false
	}
	if _, isSlice := t.Underlying().(*types.Slice); !isSlice {
		return false
	}
	want := types.ExprString(dst)
	for _, a := range call.Args {
		if types.ExprString(a) == want {
			return true
		}
	}
	return false
}

// sortedAfter reports whether obj is passed to a sort-named call positioned
// after the range statement ends.
func sortedAfter(obj types.Object, rs *ast.RangeStmt, sorts []sortCall) bool {
	for _, sc := range sorts {
		if sc.end.Pos() > rs.End() && sc.args[obj] {
			return true
		}
	}
	return false
}

// sinkName returns a printable name when call is an ordered-output sink.
func sinkName(call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if !maporderSinks[sel.Sel.Name] {
		return ""
	}
	return calleeName(call)
}

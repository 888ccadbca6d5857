package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// HotPath enforces the zero-alloc discipline on functions annotated
// //ssdx:hotpath (the span-batch program path, the kernel schedule/dispatch
// machinery, arbiter picks): the simulator's throughput rests on these
// running at 0 allocs/op, pinned at runtime by BenchmarkWriteSpanBatch,
// BenchmarkKernelSchedule, BenchmarkServerAcquire, BenchmarkServerQueued,
// BenchmarkTokenGateQueued, BenchmarkDRAMAccess and BenchmarkAHBTransfer.
// The analyzer rejects the allocating constructs that have historically
// crept in: fmt calls, map/slice composite literals and makes, closures
// capturing locals, non-constant string concatenation, string<->[]byte
// conversions, interface boxing of non-pointer values, and method values (a
// method handed on as a func value is a closure over its receiver, built
// per evaluation just like a capturing FuncLit). Struct composite literals
// stay legal — pool-refill slow paths allocate by design, amortized to
// zero; a pooled record binds its callbacks once, in the unannotated
// constructor that builds it.
var HotPath = &analysis.Analyzer{
	Name: "hotpath",
	Doc:  "functions annotated //ssdx:hotpath must not contain allocating constructs",
	Run:  runHotPath,
}

func runHotPath(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasMarker(fd.Doc, MarkHotPath) {
				continue
			}
			hp := &hotpathFunc{pass: pass, fd: fd}
			hp.check()
		}
	}
	return nil, nil
}

type hotpathFunc struct {
	pass *analysis.Pass
	fd   *ast.FuncDecl
}

func (hp *hotpathFunc) check() {
	pass := hp.pass
	// called holds the selector expressions in call position. Inspect visits
	// a call before its operand, so a selector is recorded before it is met.
	called := map[*ast.SelectorExpr]bool{}
	ast.Inspect(hp.fd.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
				called[sel] = true
			}
			hp.checkCall(e)
		case *ast.SelectorExpr:
			if sel := pass.TypesInfo.Selections[e]; sel != nil && sel.Kind() == types.MethodVal && !called[e] {
				pass.Reportf(e.Pos(), "hot path: method value %s allocates a closure; bind it once where the record is built", e.Sel.Name)
			}
		case *ast.CompositeLit:
			if tv, ok := pass.TypesInfo.Types[e]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Map:
					pass.Reportf(e.Pos(), "hot path: map composite literal allocates")
				case *types.Slice:
					pass.Reportf(e.Pos(), "hot path: slice composite literal allocates")
				}
			}
		case *ast.FuncLit:
			hp.checkCapture(e)
		case *ast.BinaryExpr:
			if e.Op == token.ADD {
				if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Value == nil && isString(tv.Type) {
					pass.Reportf(e.Pos(), "hot path: string concatenation allocates")
				}
			}
		case *ast.AssignStmt:
			if e.Tok == token.ASSIGN {
				for i, lhs := range e.Lhs {
					if i < len(e.Rhs) && len(e.Lhs) == len(e.Rhs) {
						if tv, ok := pass.TypesInfo.Types[lhs]; ok {
							hp.checkBoxing(e.Rhs[i], tv.Type, "assignment to interface")
						}
					}
				}
			}
		case *ast.ReturnStmt:
			hp.checkReturn(e)
		}
		return true
	})
}

// checkCall flags fmt calls, allocating builtins, allocating conversions, and
// interface boxing at argument positions.
func (hp *hotpathFunc) checkCall(call *ast.CallExpr) {
	pass := hp.pass

	// fmt.* (and builtin make of map/slice/chan, boxing via panic).
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if x, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := pass.TypesInfo.Uses[x].(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
				pass.Reportf(call.Pos(), "hot path: fmt.%s allocates", sel.Sel.Name)
				return
			}
		}
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				pass.Reportf(call.Pos(), "hot path: make allocates")
			case "panic":
				if len(call.Args) == 1 {
					hp.checkBoxing(call.Args[0], types.NewInterfaceType(nil, nil), "panic argument")
				}
			}
			return
		}
	}

	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok {
		return
	}
	if tv.IsType() {
		// Conversion: string<->[]byte copies; converting a concrete value to
		// an interface type boxes it.
		if len(call.Args) == 1 {
			target := tv.Type
			if atv, ok := pass.TypesInfo.Types[call.Args[0]]; ok && atv.Value == nil {
				if isString(target) && isByteSlice(atv.Type) || isByteSlice(target) && isString(atv.Type) {
					pass.Reportf(call.Pos(), "hot path: string/[]byte conversion allocates")
					return
				}
			}
			hp.checkBoxing(call.Args[0], target, "interface conversion")
		}
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	if call.Ellipsis != token.NoPos {
		return // slice... passes the slice through, no per-element boxing
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		hp.checkBoxing(arg, pt, "interface argument")
	}
}

// checkReturn flags boxing at the annotated function's own return sites
// (closure returns are skipped; the closure itself is already flagged if it
// captures).
func (hp *hotpathFunc) checkReturn(ret *ast.ReturnStmt) {
	obj := hp.pass.TypesInfo.Defs[hp.fd.Name]
	if obj == nil {
		return
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Results().Len() != len(ret.Results) {
		return // naked return or comma-ok spread; nothing boxable to pair up
	}
	// Only returns lexically inside the outer function body but not inside a
	// nested FuncLit belong to this signature.
	if hp.insideFuncLit(ret.Pos()) {
		return
	}
	for i, res := range ret.Results {
		hp.checkBoxing(res, sig.Results().At(i).Type(), "interface return")
	}
}

func (hp *hotpathFunc) insideFuncLit(pos token.Pos) bool {
	inside := false
	ast.Inspect(hp.fd.Body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok && fl.Pos() <= pos && pos < fl.End() {
			inside = true
			return false
		}
		return !inside
	})
	return inside
}

// checkBoxing reports expr if assigning it to target converts a concrete
// non-pointer-shaped value to an interface (which allocates). Constants are
// exempt: the compiler materializes them statically.
func (hp *hotpathFunc) checkBoxing(expr ast.Expr, target types.Type, what string) {
	if target == nil || !types.IsInterface(target) {
		return
	}
	tv, ok := hp.pass.TypesInfo.Types[expr]
	if !ok || tv.Value != nil || tv.IsNil() || tv.Type == nil {
		return
	}
	if types.IsInterface(tv.Type) || pointerShaped(tv.Type) {
		return
	}
	hp.pass.Reportf(expr.Pos(), "hot path: %s boxes a %s value (allocates)", what, tv.Type.String())
}

// checkCapture reports a closure that captures variables of the enclosing
// function: such closures are heap-allocated per construction.
func (hp *hotpathFunc) checkCapture(fl *ast.FuncLit) {
	pass := hp.pass
	reported := false
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if reported {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Captured: declared within the enclosing declaration (receiver,
		// parameters, or locals) but outside the closure itself.
		if v.Pos() >= hp.fd.Pos() && v.Pos() < hp.fd.End() &&
			!(v.Pos() >= fl.Pos() && v.Pos() < fl.End()) {
			pass.Reportf(fl.Pos(), "hot path: closure captures %s (allocates); pre-bind the callback", v.Name())
			reported = true
			return false
		}
		return true
	})
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// pointerShaped reports whether values of t fit in an interface word without
// allocation: pointers, unsafe pointers, channels, maps, and funcs.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

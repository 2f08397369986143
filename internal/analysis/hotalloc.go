package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc enforces the zero-alloc discipline inside functions annotated
// //alpacomm:hotpath — the cache-hit serve path, Simulate*, the DFS inner
// loops and the wire encode/decode routines whose allocation counts the
// AllocsPerRun tests pin (service.TestServedHitAllocations and those in
// resharding/builder_test.go). Inside a hot function it flags:
//
//   - fmt formatting calls (Sprintf and friends; Errorf is exempt — error
//     construction marks a cold exit);
//   - string concatenation inside loops (each + allocates a new string);
//   - append growth into slices declared without a capacity hint;
//   - interface boxing of known-concrete values (conversions, arguments
//     and assignments into interface-typed slots allocate to box);
//   - closures that capture enclosing locals without being invoked on the
//     spot (the closure and its captures escape to the heap).
//
// Cold branches inside a hot function (error exits, fallback paths) are
// exempted line-by-line with //alpacomm:allow hotalloc.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "flags allocation patterns inside //alpacomm:hotpath functions",
	Run:  runHotAlloc,
}

// fmtAllocFuncs are the fmt package functions that run the reflection
// formatter; any of them in a hot path is an allocation and a dispatch.
var fmtAllocFuncs = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true,
	"Fprintf": true, "Fprint": true, "Fprintln": true,
	"Appendf": true, "Append": true, "Appendln": true,
}

func runHotAlloc(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !pass.HotFunc(fn) {
				continue
			}
			checkHotFunc(pass, fn)
		}
	}
	return nil
}

func checkHotFunc(pass *Pass, fn *ast.FuncDecl) {
	var loopDepth int
	var inspect func(n ast.Node) bool
	inspect = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loopDepth++
			// Walk children explicitly so the depth unwinds correctly.
			if fs, ok := n.(*ast.ForStmt); ok {
				if fs.Init != nil {
					ast.Inspect(fs.Init, inspect)
				}
				if fs.Cond != nil {
					ast.Inspect(fs.Cond, inspect)
				}
				if fs.Post != nil {
					ast.Inspect(fs.Post, inspect)
				}
				ast.Inspect(fs.Body, inspect)
			} else {
				rs := n.(*ast.RangeStmt)
				ast.Inspect(rs.X, inspect)
				ast.Inspect(rs.Body, inspect)
			}
			loopDepth--
			return false
		case *ast.BinaryExpr:
			if loopDepth > 0 && n.Op == token.ADD && isStringExpr(pass, n.X) {
				pass.Reportf(n.OpPos,
					"string concatenation in a loop inside hot path %s allocates per iteration; "+
						"append into a reused []byte or precompute", fn.Name.Name)
			}
		case *ast.AssignStmt:
			if loopDepth > 0 && n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringExpr(pass, n.Lhs[0]) {
				pass.Reportf(n.TokPos,
					"string += in a loop inside hot path %s allocates per iteration", fn.Name.Name)
			}
			checkBoxingAssign(pass, fn, n)
		case *ast.CallExpr:
			checkFmtCall(pass, fn, n)
			if loopDepth > 0 {
				checkUnhintedAppend(pass, fn, n)
			}
			checkBoxingCall(pass, fn, n)
		case *ast.FuncLit:
			checkEscapingClosure(pass, fn, n)
		}
		return true
	}
	ast.Inspect(fn.Body, inspect)
}

func isStringExpr(pass *Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func checkFmtCall(pass *Pass, fn *ast.FuncDecl, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "fmt" {
		return
	}
	if fmtAllocFuncs[obj.Name()] {
		pass.Reportf(call.Pos(),
			"fmt.%s in hot path %s runs the reflection formatter and allocates; "+
				"use strconv appends or pre-rendered bytes", obj.Name(), fn.Name.Name)
	}
}

// checkUnhintedAppend flags `x = append(x, ...)` in a loop when x is
// declared in the same function without a capacity hint: every growth
// step reallocates and copies. The fix hints the capacity from the ranged
// operand when the loop is a range.
func checkUnhintedAppend(pass *Pass, fn *ast.FuncDecl, call *ast.CallExpr) {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return
	}
	if _, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok {
		return
	}
	if len(call.Args) == 0 {
		return
	}
	dst, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return
	}
	obj := pass.TypesInfo.ObjectOf(dst)
	if obj == nil {
		return
	}
	decl := findLocalDecl(fn, obj)
	if decl == nil || hasCapacityHint(pass, decl) {
		return
	}
	pass.Reportf(call.Pos(),
		"append into %s grows an unhinted slice in a loop inside hot path %s; "+
			"declare it with make(..., 0, n)", dst.Name, fn.Name.Name)
}

// findLocalDecl locates the statement declaring obj inside fn, or nil if
// obj is a parameter, field or package-level variable (whose capacity the
// function cannot be blamed for).
func findLocalDecl(fn *ast.FuncDecl, obj types.Object) ast.Node {
	var found ast.Node
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Pos() == obj.Pos() {
					found = n
					return false
				}
			}
		case *ast.ValueSpec:
			for _, name := range n.Names {
				if name.Pos() == obj.Pos() {
					found = n
					return false
				}
			}
		}
		return true
	})
	return found
}

// hasCapacityHint reports whether the declaration gives the slice a
// capacity: make with a cap argument, a non-empty literal, or any
// initializer that is not an obviously empty slice.
func hasCapacityHint(pass *Pass, decl ast.Node) bool {
	var init ast.Expr
	switch d := decl.(type) {
	case *ast.AssignStmt:
		if len(d.Rhs) != 1 {
			return true // multi-assign; don't guess
		}
		init = d.Rhs[0]
	case *ast.ValueSpec:
		if len(d.Values) == 0 {
			return false // var x []T
		}
		if len(d.Values) != 1 {
			return true
		}
		init = d.Values[0]
	default:
		return true
	}
	switch e := init.(type) {
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "make" {
			if _, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
				return len(e.Args) >= 3 // make([]T, len, cap)
			}
		}
		return true // some constructor; assume it sized the slice
	case *ast.CompositeLit:
		return len(e.Elts) > 0
	case *ast.Ident:
		return e.Name != "nil"
	}
	return true
}

// checkBoxingCall flags concrete values passed into interface-typed
// parameters: each one allocates to box the value. fmt calls are skipped
// (already flagged wholesale).
func checkBoxingCall(pass *Pass, fn *ast.FuncDecl, call *ast.CallExpr) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
			return
		}
	}
	// Explicit conversion to an interface type: I(x).
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 && isConcrete(pass, call.Args[0]) {
			pass.Reportf(call.Pos(), "conversion boxes a concrete value into an interface in hot path %s", fn.Name.Name)
		}
		return
	}
	sig, ok := calleeSignature(pass, call)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // x... passes the slice through, no boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if types.IsInterface(pt) && isConcrete(pass, arg) {
			pass.Reportf(arg.Pos(),
				"argument boxes a concrete value into an interface parameter in hot path %s", fn.Name.Name)
		}
	}
}

func calleeSignature(pass *Pass, call *ast.CallExpr) (*types.Signature, bool) {
	t := pass.TypesInfo.TypeOf(call.Fun)
	if t == nil {
		return nil, false
	}
	sig, ok := t.Underlying().(*types.Signature)
	return sig, ok
}

// checkBoxingAssign flags assignments of concrete values into
// interface-typed variables or fields.
func checkBoxingAssign(pass *Pass, fn *ast.FuncDecl, as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i := range as.Lhs {
		lt := pass.TypesInfo.TypeOf(as.Lhs[i])
		if lt == nil || !types.IsInterface(lt) {
			continue
		}
		if isConcrete(pass, as.Rhs[i]) {
			pass.Reportf(as.Rhs[i].Pos(),
				"assignment boxes a concrete value into an interface in hot path %s", fn.Name.Name)
		}
	}
}

// isConcrete reports whether e has a concrete (non-interface, non-nil)
// static type — the case where storing it in an interface allocates.
func isConcrete(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	if tv.IsNil() {
		return false
	}
	b, isBasic := tv.Type.Underlying().(*types.Basic)
	if isBasic && b.Kind() == types.UntypedNil {
		return false
	}
	return !types.IsInterface(tv.Type)
}

// checkEscapingClosure flags function literals that capture enclosing
// locals without being called on the spot: the literal and every captured
// variable move to the heap. Immediately-invoked literals (including
// under defer and go) keep their captures stack-allocatable.
func checkEscapingClosure(pass *Pass, fn *ast.FuncDecl, lit *ast.FuncLit) {
	if immediatelyInvoked(fn, lit) {
		return
	}
	captured := capturedLocals(pass, fn, lit)
	if len(captured) == 0 {
		return
	}
	pass.Reportf(lit.Pos(),
		"closure captures %s and escapes in hot path %s, forcing heap allocation of the captures",
		fmt.Sprintf("%q", captured[0]), fn.Name.Name)
}

// immediatelyInvoked reports whether lit is the callee of a call
// expression somewhere in fn (covers f(){...}(), defer f(){...}(), go).
func immediatelyInvoked(fn *ast.FuncDecl, lit *ast.FuncLit) bool {
	invoked := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && call.Fun == lit {
			invoked = true
		}
		return !invoked
	})
	return invoked
}

// capturedLocals lists variables declared in fn (outside lit) that lit
// references.
func capturedLocals(pass *Pass, fn *ast.FuncDecl, lit *ast.FuncLit) []string {
	var names []string
	seen := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		v, ok := obj.(*types.Var)
		if !ok || seen[v] || v.IsField() {
			return true
		}
		// Declared inside the enclosing function but outside the literal.
		if v.Pos() > fn.Pos() && v.Pos() < fn.End() && (v.Pos() < lit.Pos() || v.Pos() > lit.End()) {
			seen[v] = true
			names = append(names, v.Name())
		}
		return true
	})
	return names
}

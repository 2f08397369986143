package analysis

import (
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// Determinism flags sources of run-to-run nondeterminism in packages
// whose outputs must be byte-identical across machines and replicas:
//
//   - `range` over a map, unless the loop body is one of a small set of
//     provably order-insensitive shapes (copying into another map,
//     deleting, integer accumulation, min/max folding);
//   - wall-clock reads (time.Now / time.Since / time.Until);
//   - package-level math/rand calls (the shared global source), as
//     opposed to a *rand.Rand built from a derived seed, which is fine.
//
// Plans are cached, cross-checked between cluster nodes and served as
// pre-serialized bytes, so "mostly deterministic" is indistinguishable
// from broken: a map-ordered sender list or a wall-clock-budgeted search
// produces plans that fail byte-identity verification on another node.
// A deliberate exception carries //alpacomm:allow determinism with a reason.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "flags map iteration order, wall-clock reads and global math/rand use in plan-producing packages",
	Run:  runDeterminism,
}

func runDeterminism(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			// Range statements are checked through their enclosing
			// statement list so the key-collection idiom (append keys, sort,
			// iterate) can see the sort call that follows the loop.
			var list []ast.Stmt
			switch n := n.(type) {
			case *ast.BlockStmt:
				list = n.List
			case *ast.CaseClause:
				list = n.Body
			case *ast.CommClause:
				list = n.Body
			case *ast.CallExpr:
				checkClockAndRand(pass, n)
				return true
			default:
				return true
			}
			for i, stmt := range list {
				rs, ok := stmt.(*ast.RangeStmt)
				if !ok {
					continue
				}
				var next ast.Stmt
				if i+1 < len(list) {
					next = list[i+1]
				}
				checkMapRange(pass, rs, next)
			}
			return true
		})
	}
	return nil
}

// checkMapRange flags `for ... := range m` when m is a map and the body
// is not provably order-insensitive. next is the statement following the
// loop (nil at the end of a block), consulted for the sorted-keys idiom.
func checkMapRange(pass *Pass, rs *ast.RangeStmt, next ast.Stmt) {
	t := pass.TypesInfo.TypeOf(rs.X)
	if t == nil {
		return
	}
	mt, ok := t.Underlying().(*types.Map)
	if !ok {
		return
	}
	if orderInsensitiveBody(pass, rs) {
		return
	}
	if isBucketNormalize(pass, rs) {
		return
	}
	if isKeyCollection(pass, rs, next) {
		return
	}
	d := Diagnostic{
		Pos: rs.Pos(),
		End: rs.End(),
		Message: "iteration over map is ordered randomly and this body is order-sensitive; " +
			"sort the keys first (or annotate //alpacomm:allow determinism <why>)",
	}
	if fix, ok := sortedRangeFix(pass, rs, mt); ok {
		d.Fixes = append(d.Fixes, fix)
	}
	pass.Report(d)
}

// orderInsensitiveBody recognizes loop bodies whose effect cannot depend
// on iteration order: every top-level statement is a map write, a map
// delete, an integer accumulation (float accumulation is order-sensitive
// under IEEE rounding), or a min/max fold.
func orderInsensitiveBody(pass *Pass, rs *ast.RangeStmt) bool {
	for _, stmt := range rs.Body.List {
		if !orderInsensitiveStmt(pass, stmt) {
			return false
		}
	}
	return true
}

func orderInsensitiveStmt(pass *Pass, stmt ast.Stmt) bool {
	switch s := stmt.(type) {
	case *ast.AssignStmt:
		if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
			return false
		}
		switch s.Tok {
		case token.ASSIGN:
			// dst[k] = v — writing through distinct keys commutes.
			idx, ok := s.Lhs[0].(*ast.IndexExpr)
			if !ok {
				return false
			}
			t := pass.TypesInfo.TypeOf(idx.X)
			if t == nil {
				return false
			}
			_, isMap := t.Underlying().(*types.Map)
			return isMap
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
			// Integer accumulation commutes exactly; float does not.
			return isIntegerExpr(pass, s.Lhs[0])
		}
		return false
	case *ast.IncDecStmt:
		return isIntegerExpr(pass, s.X)
	case *ast.ExprStmt:
		// delete(m, k) commutes.
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok {
			return false
		}
		b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
		return ok && b.Name() == "delete"
	case *ast.IfStmt:
		// Min/max folding: `if v > best { best = v }` (any comparison
		// operator, single plain assignment, no else, no init).
		if s.Else != nil || s.Init != nil {
			return false
		}
		cmp, ok := s.Cond.(*ast.BinaryExpr)
		if !ok {
			return false
		}
		switch cmp.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ:
		default:
			return false
		}
		if len(s.Body.List) != 1 {
			return false
		}
		as, ok := s.Body.List[0].(*ast.AssignStmt)
		return ok && as.Tok == token.ASSIGN && len(as.Lhs) == 1
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE
	}
	return false
}

// isBucketNormalize recognizes the per-bucket normalization idiom:
//
//	for k := range m {
//		sort.Ints(m[k])
//	}
//
// Each iteration sorts one bucket in place; buckets are disjoint and the
// sort erases any order the iteration could have leaked into them, so the
// loop commutes.
func isBucketNormalize(pass *Pass, rs *ast.RangeStmt) bool {
	if len(rs.Body.List) != 1 {
		return false
	}
	es, ok := rs.Body.List[0].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sort" {
		return false
	}
	mapID, ok := rs.X.(*ast.Ident)
	if !ok {
		return false
	}
	keyID, ok := rs.Key.(*ast.Ident)
	if !ok || keyID.Name == "_" {
		return false
	}
	for _, arg := range call.Args {
		idx, ok := arg.(*ast.IndexExpr)
		if !ok {
			return false
		}
		base, ok := idx.X.(*ast.Ident)
		if !ok || pass.TypesInfo.Uses[base] != pass.TypesInfo.ObjectOf(mapID) {
			return false
		}
		key, ok := idx.Index.(*ast.Ident)
		if !ok || pass.TypesInfo.Uses[key] != pass.TypesInfo.ObjectOf(keyID) {
			return false
		}
	}
	return true
}

// isKeyCollection recognizes the sanctioned sorted-iteration idiom: a
// loop whose body only appends the keys to a slice, immediately followed
// by a sort call over that slice. The iteration order the map leaks is
// erased by the sort, so the pair is deterministic as a unit.
func isKeyCollection(pass *Pass, rs *ast.RangeStmt, next ast.Stmt) bool {
	if len(rs.Body.List) != 1 {
		return false
	}
	as, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	dst, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return false
	}
	if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
		return false
	}
	// The statement after the loop must sort the collected slice.
	es, ok := next.(*ast.ExprStmt)
	if !ok {
		return false
	}
	sortCall, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := sortCall.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sort" {
		return false
	}
	for _, arg := range sortCall.Args {
		if id, ok := arg.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == pass.TypesInfo.ObjectOf(dst) {
			return true
		}
	}
	return false
}

func isIntegerExpr(pass *Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// checkClockAndRand flags wall-clock reads and global math/rand calls.
func checkClockAndRand(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	// Package-level functions only: methods on *rand.Rand (derived seeds)
	// and on time.Time values are deterministic given their inputs.
	if fn.Type().(*types.Signature).Recv() != nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			pass.Reportf(call.Pos(),
				"wall-clock read time.%s makes results depend on machine speed; "+
					"use a deterministic budget (or annotate //alpacomm:allow determinism <why>)", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		switch fn.Name() {
		case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
			// Constructors over caller-supplied (derived) seeds are the
			// sanctioned pattern.
		default:
			pass.Reportf(call.Pos(),
				"global math/rand.%s draws from the shared process-wide source; "+
					"thread a seeded *rand.Rand instead (or annotate //alpacomm:allow determinism <why>)", fn.Name())
		}
	}
}

// sortedRangeFix builds the mechanical rewrite for an order-sensitive map
// range when the key type sorts directly: collect the keys, sort, then
// iterate the sorted slice looking values back up. Offered only for plain
// int/string keys over a simple (ident or selector) map expression, so the
// generated code is exactly what a human would write.
func sortedRangeFix(pass *Pass, rs *ast.RangeStmt, mt *types.Map) (SuggestedFix, bool) {
	var sortCall, keyType string
	if b, ok := mt.Key().(*types.Basic); ok {
		switch b.Kind() {
		case types.Int:
			sortCall, keyType = "sort.Ints", "int"
		case types.String:
			sortCall, keyType = "sort.Strings", "string"
		}
	}
	if sortCall == "" {
		return SuggestedFix{}, false
	}
	switch rs.X.(type) {
	case *ast.Ident, *ast.SelectorExpr:
	default:
		return SuggestedFix{}, false
	}
	if rs.Tok != token.DEFINE {
		return SuggestedFix{}, false
	}
	keyName := "k"
	if id, ok := rs.Key.(*ast.Ident); ok && id.Name != "_" {
		keyName = id.Name
	}
	var valDecl string
	if vid, ok := rs.Value.(*ast.Ident); ok && vid.Name != "_" {
		valDecl = fmt.Sprintf("%s := %s[%s]", vid.Name, exprString(pass.Fset, rs.X), keyName)
	}
	line := pass.Fset.Position(rs.Pos()).Line
	keysVar := fmt.Sprintf("keys%d", line)
	mapExpr := exprString(pass.Fset, rs.X)
	prelude := fmt.Sprintf("%s := make([]%s, 0, len(%s))\nfor %s := range %s {\n%s = append(%s, %s)\n}\n%s(%s)\n",
		keysVar, keyType, mapExpr, keyName, mapExpr, keysVar, keysVar, keyName, sortCall, keysVar)
	header := fmt.Sprintf("for _, %s := range %s {\n%s", keyName, keysVar, valDecl)
	return SuggestedFix{
		Message:    "iterate over sorted keys",
		NeedImport: "sort",
		Edits: []TextEdit{{
			Pos:     rs.Pos(),
			End:     rs.Body.Lbrace + 1,
			NewText: []byte(prelude + header),
		}},
	}, true
}

func exprString(fset *token.FileSet, e ast.Expr) string {
	var sb strings.Builder
	_ = printer.Fprint(&sb, fset, e)
	return sb.String()
}

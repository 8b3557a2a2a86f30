package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Allocfree checks functions annotated //ntblint:allocfree — the
// simulator's hot paths, whose allocs/op the benchmark gate pins at
// zero — for source constructs that allocate: closures, map/slice
// literals, escaping composite literals, new/make, non-self appends,
// interface boxing, string building, and method values. Where the
// runtime gate says *that* an allocation appeared, this analyzer points
// at the expression that caused it. Deliberate cold-path allocations
// (pool refills) carry a //ntblint:allocok waiver explaining why.
//
// Everything under a call to panic is exempt: panic paths are terminal
// and their formatting cost is irrelevant.
var Allocfree = &Analyzer{
	Name: "allocfree",
	Doc: "functions annotated //ntblint:allocfree must not contain " +
		"allocating constructs (waive deliberate ones with //ntblint:allocok)",
	Run: runAllocfree,
}

func runAllocfree(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !pass.HasDirective(fn.Doc, DirectiveAllocFree) {
				continue
			}
			checkAllocFree(pass, fn)
		}
	}
}

type allocChecker struct {
	pass *Pass
	// selfAppends holds append calls in the `x = append(x, …)` form:
	// the amortized retained-backing idiom the hot paths rely on.
	selfAppends map[*ast.CallExpr]bool
	// escaped holds composite literals already reported as &T{…}.
	escaped map[*ast.CompositeLit]bool
	// callFuns holds selector expressions in call position, so method
	// *values* (which allocate a closure) can be told from calls.
	callFuns map[ast.Expr]bool
}

func checkAllocFree(pass *Pass, fn *ast.FuncDecl) {
	c := &allocChecker{
		pass:        pass,
		selfAppends: map[*ast.CallExpr]bool{},
		escaped:     map[*ast.CompositeLit]bool{},
		callFuns:    map[ast.Expr]bool{},
	}
	// First pass: classify idioms that need their surrounding context.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == 1 && len(n.Rhs) == 1 {
				if call, ok := n.Rhs[0].(*ast.CallExpr); ok && c.isBuiltinCall(call, "append") &&
					len(call.Args) > 0 && exprEqual(n.Lhs[0], call.Args[0]) {
					c.selfAppends[call] = true
				}
			}
		case *ast.CallExpr:
			c.callFuns[ast.Unparen(n.Fun)] = true
		}
		return true
	})
	c.walk(fn.Body)
	c.checkReturns(pass, fn)
}

func (c *allocChecker) walk(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.report(n.Pos(), "function literal allocates a closure")
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					c.escaped[lit] = true
					c.report(n.Pos(), "&%s escapes to the heap", typeLabel(c.pass, lit))
				}
			}
		case *ast.CompositeLit:
			if c.escaped[n] {
				return true
			}
			switch c.typeOf(n).Underlying().(type) {
			case *types.Map:
				c.report(n.Pos(), "map literal allocates")
			case *types.Slice:
				c.report(n.Pos(), "slice literal allocates a backing array")
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(c.typeOf(n)) {
				c.report(n.Pos(), "string concatenation allocates; precompute the string")
			}
		case *ast.SelectorExpr:
			if sel := c.pass.TypesInfo.Selections[n]; sel != nil &&
				sel.Kind() == types.MethodVal && !c.callFuns[n] {
				c.report(n.Pos(), "method value %s allocates a bound-method closure", n.Sel.Name)
			}
		case *ast.CallExpr:
			return c.checkCall(n)
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i < len(n.Lhs) {
					c.checkBox(rhs, c.typeOf(n.Lhs[i]))
				}
			}
		}
		return true
	})
}

// checkCall handles builtins, conversions, and interface boxing at call
// boundaries. Returns false to skip the subtree (panic paths).
func (c *allocChecker) checkCall(call *ast.CallExpr) bool {
	if c.isBuiltinCall(call, "panic") {
		return false // terminal path: formatting cost is irrelevant
	}
	if c.isBuiltinCall(call, "new") {
		c.report(call.Pos(), "new allocates")
		return true
	}
	if c.isBuiltinCall(call, "make") {
		c.report(call.Pos(), "make allocates")
		return true
	}
	if c.isBuiltinCall(call, "append") && !c.selfAppends[call] {
		c.report(call.Pos(), "append whose result does not feed back into its first argument allocates a new backing array")
		return true
	}
	// Conversions: string <-> byte/rune slices copy; conversions into
	// interface types box.
	if tv, ok := c.pass.TypesInfo.Types[ast.Unparen(call.Fun)]; ok && tv.IsType() && len(call.Args) == 1 {
		dst, src := tv.Type, c.typeOf(call.Args[0])
		if stringBytesConversion(dst, src) {
			c.report(call.Pos(), "string/slice conversion copies its operand")
		}
		if boxes(src, dst) {
			c.report(call.Pos(), "conversion boxes %s into %s", src, dst)
		}
		return true
	}
	// Ordinary call: check each argument against its parameter type.
	sig, ok := c.typeOf(call.Fun).Underlying().(*types.Signature)
	if !ok {
		return true
	}
	for i, arg := range call.Args {
		var param types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing
			}
			param = sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice).Elem()
		case i < sig.Params().Len():
			param = sig.Params().At(i).Type()
		default:
			continue
		}
		c.checkBox(arg, param)
	}
	return true
}

func (c *allocChecker) checkReturns(pass *Pass, fn *ast.FuncDecl) {
	obj, _ := pass.TypesInfo.Defs[fn.Name].(*types.Func)
	if obj == nil {
		return
	}
	results := obj.Type().(*types.Signature).Results()
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != results.Len() {
			return true
		}
		for i, res := range ret.Results {
			c.checkBox(res, results.At(i).Type())
		}
		return true
	})
}

// checkBox reports expr if assigning it to target boxes a value into an
// interface.
func (c *allocChecker) checkBox(expr ast.Expr, target types.Type) {
	if target == nil {
		return
	}
	src := c.typeOf(expr)
	if boxes(src, target) {
		c.report(expr.Pos(), "%s is boxed into %s here (interface conversion allocates for non-pointer values)", src, target)
	}
}

func (c *allocChecker) report(pos token.Pos, format string, args ...any) {
	if c.pass.Waived(pos, DirectiveAllocOK) {
		return
	}
	c.pass.Reportf(pos, format, args...)
}

func (c *allocChecker) typeOf(e ast.Expr) types.Type {
	if t := c.pass.TypesInfo.TypeOf(e); t != nil {
		return t
	}
	return types.Typ[types.Invalid]
}

func (c *allocChecker) isBuiltinCall(call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == name && isBuiltin(c.pass, id)
}

// boxes reports whether storing a src value into a dst interface
// allocates: true for concrete non-pointer-shaped values. Pointer-shaped
// values (pointers, channels, maps, funcs, unsafe pointers) fit in the
// interface word directly.
func boxes(src, dst types.Type) bool {
	if src == nil || dst == nil || !types.IsInterface(dst) || types.IsInterface(src) {
		return false
	}
	if b, ok := src.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	switch src.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	}
	if b, ok := src.Underlying().(*types.Basic); ok && b.Kind() == types.UnsafePointer {
		return false
	}
	return true
}

func stringBytesConversion(dst, src types.Type) bool {
	return (isString(dst) && isByteOrRuneSlice(src)) || (isString(src) && isByteOrRuneSlice(dst))
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// exprEqual structurally compares the simple path expressions that
// appear on either side of a self-append.
func exprEqual(a, b ast.Expr) bool {
	a, b = ast.Unparen(a), ast.Unparen(b)
	switch ae := a.(type) {
	case *ast.Ident:
		be, ok := b.(*ast.Ident)
		return ok && ae.Name == be.Name
	case *ast.SelectorExpr:
		be, ok := b.(*ast.SelectorExpr)
		return ok && ae.Sel.Name == be.Sel.Name && exprEqual(ae.X, be.X)
	case *ast.IndexExpr:
		be, ok := b.(*ast.IndexExpr)
		return ok && exprEqual(ae.X, be.X) && exprEqual(ae.Index, be.Index)
	case *ast.StarExpr:
		be, ok := b.(*ast.StarExpr)
		return ok && exprEqual(ae.X, be.X)
	case *ast.BasicLit:
		be, ok := b.(*ast.BasicLit)
		return ok && ae.Kind == be.Kind && ae.Value == be.Value
	}
	return false
}

func typeLabel(pass *Pass, lit *ast.CompositeLit) string {
	if t := pass.TypesInfo.TypeOf(lit); t != nil {
		return t.String() + "{…}"
	}
	return "composite literal"
}

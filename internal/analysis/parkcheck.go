package analysis

import (
	"go/ast"
)

// Parkcheck keeps the kernel's zero-alloc blocking discipline: a
// process parks many times per simulated microsecond, so the label a
// park call hands the deadlock reporter must be a precomputed string
// (literal, constant, or a field such as parkLabel built once at
// construction) — never concatenated or formatted at the call site.
// Likewise the Ticker handed to AfterTick must be a pre-allocated value,
// not a per-call literal or closure, or every timer arm would allocate.
var Parkcheck = &Analyzer{
	Name: "parkcheck",
	Doc: "park/wake labels must be precomputed strings and AfterTick " +
		"tickers pre-allocated values",
	Run: runParkcheck,
}

func runParkcheck(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch calleeName(call) {
			case "park", "Park":
				if len(call.Args) >= 1 && isString(pass.TypesInfo.TypeOf(call.Args[0])) {
					checkStaticLabel(pass, call.Args[0])
				}
			case "AfterTick":
				if len(call.Args) >= 2 {
					checkPreallocatedTicker(pass, call.Args[1])
				}
			}
			return true
		})
	}
}

// checkStaticLabel accepts label expressions that cost nothing at the
// call site: string literals, constants, plain variables, and field or
// element reads. Building the label in the call (concatenation,
// fmt.Sprintf, conversions) is reported.
func checkStaticLabel(pass *Pass, arg ast.Expr) {
	switch ast.Unparen(arg).(type) {
	case *ast.BasicLit, *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr:
		return
	case *ast.BinaryExpr:
		pass.Reportf(arg.Pos(),
			"park label is concatenated at the call site; precompute it (e.g. a parkLabel field built at construction)")
	case *ast.CallExpr:
		pass.Reportf(arg.Pos(),
			"park label is built by a call at the park site; precompute it (e.g. a parkLabel field built at construction)")
	default:
		pass.Reportf(arg.Pos(),
			"park label must be a precomputed string (literal, constant, or stored field)")
	}
}

// checkPreallocatedTicker accepts tickers that already exist — plain
// variables and field/element reads — and reports per-call
// constructions: composite literals, address-of expressions, closures,
// and constructor calls, all of which allocate on every timer arm.
func checkPreallocatedTicker(pass *Pass, arg ast.Expr) {
	switch ast.Unparen(arg).(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr:
		return
	default:
		pass.Reportf(arg.Pos(),
			"AfterTick ticker must be a pre-allocated value; constructing one per arm allocates on the timer path")
	}
}

// Analyzers returns the full ntblint suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{Simdet, Snapcheck, Allocfree, Parkcheck, Fabriccontract, Waiverdrift}
}

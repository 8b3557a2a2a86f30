package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Fabriccontract enforces the PROTOCOL.md §13 backend contract: a type
// that sets out to implement fabric.Link must ship the whole lifecycle,
// not the easy half. A type implementing more than half of the contract
// but missing methods is reported (a fifth backend that compiles only
// because it never got assigned to a Link variable would otherwise slip
// through until the differential suite runs); Snapshot/Restore/
// AssertQuiescent are called out as the one lifecycle unit.
// Full implementers are checked for Stats coverage (a Stats that
// returns a constant reports nothing about the link), and every Unplug
// in a package declaring the contract must return the uniform error
// surface instead of panicking or returning nothing. A deliberate
// partial adapter is waived with //ntblint:notlink in its doc comment.
var Fabriccontract = &Analyzer{
	Name: "fabriccontract",
	Doc: "require types resembling fabric.Link to implement the full " +
		"lifecycle contract, with real Stats and an error-returning Unplug",
	Run: runFabriccontract,
}

// contractName is the interface the analyzer anchors on, wherever it is
// declared — the fabric package on the real tree, the fixture package
// in tests.
const contractName = "Link"

func runFabriccontract(pass *Pass) {
	contract, localContract := findContract(pass)
	if contract == nil {
		return
	}
	iface, ok := contract.Underlying().(*types.Interface)
	if !ok {
		return
	}

	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, isIface := named.Underlying().(*types.Interface); isIface {
			continue
		}
		checkContractType(pass, named, iface)
	}

	if localContract {
		checkUnplugSurface(pass)
	}
}

// findContract locates the Link contract interface: the pass package's
// own declaration when it has one, else the engine-wide lookup. The
// bool reports whether the contract is declared locally (which scopes
// the Unplug surface check to the package that owns the contract).
func findContract(pass *Pass) (*types.Named, bool) {
	if tn, ok := pass.Pkg.Scope().Lookup(contractName).(*types.TypeName); ok && !tn.IsAlias() {
		if named, ok := tn.Type().(*types.Named); ok {
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				return named, true
			}
		}
	}
	for _, named := range pass.Engine.Interfaces(contractName) {
		return named, false
	}
	return nil, false
}

// lifecycleMethods are the world lifecycle's three; missing any one of
// them while shipping the others breaks snapshot/restore round-trips in
// a way only the differential suite would catch.
var lifecycleMethods = map[string]bool{
	"Snapshot": true, "Restore": true, "AssertQuiescent": true,
}

// checkContractType classifies one named type against the contract and
// reports partial implementations and stub Stats.
func checkContractType(pass *Pass, named *types.Named, iface *types.Interface) {
	ms := types.NewMethodSet(types.NewPointer(named))
	total := iface.NumMethods()
	var missing []string
	matched := 0
	for i := 0; i < total; i++ {
		want := iface.Method(i)
		sel := ms.Lookup(pass.Pkg, want.Name())
		if sel == nil {
			// Exported contract methods are visible from any package;
			// Lookup with the wrong package would hide them, so retry
			// with the method's own package for robustness.
			sel = ms.Lookup(want.Pkg(), want.Name())
		}
		if sel != nil {
			if fn, ok := sel.Obj().(*types.Func); ok && types.Identical(fn.Type(), want.Type()) {
				matched++
				continue
			}
		}
		missing = append(missing, want.Name())
	}

	switch {
	case matched == total:
		checkStatsCoverage(pass, named, iface)
	case matched*2 > total:
		if typeWaived(pass, named, DirectiveNotLink) {
			return
		}
		var lifecycle []string
		for _, m := range missing {
			if lifecycleMethods[m] {
				lifecycle = append(lifecycle, m)
			}
		}
		sort.Strings(missing)
		msg := "%s implements %d of %d fabric.Link methods but is missing %s; " +
			"a backend must ship the full contract (or waive a deliberate partial adapter with //ntblint:notlink)"
		if len(lifecycle) > 0 {
			sort.Strings(lifecycle)
			msg = "%s implements %d of %d fabric.Link methods but is missing %s; " +
				"the Snapshot/Restore/AssertQuiescent lifecycle must ship as a unit " +
				"(or waive a deliberate partial adapter with //ntblint:notlink)"
		}
		pass.Reportf(named.Obj().Pos(), msg, named.Obj().Name(), matched, total, strings.Join(missing, ", "))
	}
}

// checkStatsCoverage flags a full implementer whose Stats method
// returns without mentioning any receiver state — a stub that
// satisfies the signature while reporting nothing.
func checkStatsCoverage(pass *Pass, named *types.Named, iface *types.Interface) {
	if lookupIfaceMethod(iface, "Stats") == nil {
		return
	}
	fd := pass.Engine.MethodDecl(named, "Stats")
	if fd == nil || fd.Body == nil {
		return
	}
	recv := receiverIdentName(fd)
	if recv == "" {
		pass.Reportf(fd.Pos(),
			"%s.Stats ignores its receiver; Stats must report per-link state, not a constant",
			named.Obj().Name())
		return
	}
	if !mentionsReceiverSelector(fd.Body, recv) {
		pass.Reportf(fd.Pos(),
			"%s.Stats never reads receiver state; Stats must report per-link counters, not a constant",
			named.Obj().Name())
	}
}

// checkUnplugSurface requires every Unplug method in the contract's own
// package to return error as its last result — the uniform
// failure-injection surface (PROTOCOL.md §13); panicking or returning
// nothing leaves callers with no way to report "unsupported".
func checkUnplugSurface(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name != "Unplug" {
				continue
			}
			results := fd.Type.Results
			if results != nil && len(results.List) > 0 {
				last := results.List[len(results.List)-1].Type
				if id, ok := ast.Unparen(last).(*ast.Ident); ok && id.Name == "error" {
					continue
				}
			}
			pass.Reportf(fd.Pos(),
				"%s.Unplug must return error as its last result — the uniform failure-injection surface; "+
					"return a descriptive error for unsupported configurations instead of panicking",
				receiverTypeName(fd))
		}
	}
}

// lookupIfaceMethod returns the interface's method by name, nil when
// absent.
func lookupIfaceMethod(iface *types.Interface, name string) *types.Func {
	for i := 0; i < iface.NumMethods(); i++ {
		if m := iface.Method(i); m.Name() == name {
			return m
		}
	}
	return nil
}

// mentionsReceiverSelector reports whether a body reads or writes any
// field or method of the named receiver.
func mentionsReceiverSelector(body *ast.BlockStmt, recv string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && id.Name == recv {
			found = true
			return false
		}
		return true
	})
	return found
}

// typeWaived reports whether the named type's declaration carries the
// directive in its doc comment (TypeSpec or enclosing GenDecl).
func typeWaived(pass *Pass, named *types.Named, directive string) bool {
	target := named.Obj().Name()
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Name.Name != target {
					continue
				}
				if HasDirective(ts.Doc, directive) || HasDirective(gd.Doc, directive) {
					return true
				}
				return pass.Waived(ts.Pos(), directive)
			}
		}
	}
	return false
}

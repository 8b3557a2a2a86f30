package analysis

import (
	"go/ast"
	"go/types"
)

// Engine is the cross-package fact layer shared by every analyzer in one
// Run: a declaration index that resolves a method to its syntax anywhere
// in the package set, the named types and interfaces declared across it,
// and each package's waiver-directive index. It is built once per Run
// (single-package fixture loads included) and is read-only afterwards,
// so parallel per-package passes share it freely.
type Engine struct {
	decl  map[*types.Func]*ast.FuncDecl
	named []*types.Named // every declared named type, by package path then name

	// dirs holds each package's waiver-directive index, shared with the
	// per-package passes so directives are scanned once per load.
	dirs map[string]directiveIndex
}

// NewEngine builds the fact layer over the given packages. Packages are
// indexed in slice order (the loader sorts by import path), files and
// declarations in source order, so every derived list is deterministic.
func NewEngine(pkgs []*Package) *Engine {
	e := &Engine{
		decl: map[*types.Func]*ast.FuncDecl{},
		dirs: map[string]directiveIndex{},
	}
	for _, pkg := range pkgs {
		e.dirs[pkg.Path] = indexDirectives(pkg.Fset, pkg.Files)
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					e.decl[fn] = fd
				}
			}
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() { // already sorted
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok {
					e.named = append(e.named, named)
				}
			}
		}
	}
	return e
}

// Interfaces returns the named interface types with the given name, in
// package order — the lookup fabriccontract uses to find the Link
// contract wherever it is declared (the fabric package on the real
// tree, the fixture package under test).
func (e *Engine) Interfaces(name string) []*types.Named {
	var out []*types.Named
	for _, named := range e.named {
		if named.Obj().Name() != name {
			continue
		}
		if _, ok := named.Underlying().(*types.Interface); ok {
			out = append(out, named)
		}
	}
	return out
}

// Implementers returns every named type in the package set whose
// pointer method set satisfies iface, by package path then type name.
func (e *Engine) Implementers(iface *types.Interface) []*types.Named {
	var out []*types.Named
	for _, named := range e.named {
		if _, ok := named.Underlying().(*types.Interface); ok {
			continue
		}
		if types.Implements(types.NewPointer(named), iface) || types.Implements(named, iface) {
			out = append(out, named)
		}
	}
	return out
}

// MethodDecl resolves a named type's method by name to its declaration,
// or nil when the method is promoted, synthetic, or declared outside
// the loaded set.
func (e *Engine) MethodDecl(named *types.Named, name string) *ast.FuncDecl {
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); m.Name() == name {
			return e.decl[m]
		}
	}
	return nil
}

// directivesFor returns the package's directive index (empty index for
// packages outside the engine's set).
func (e *Engine) directivesFor(path string) directiveIndex {
	if d, ok := e.dirs[path]; ok {
		return d
	}
	return directiveIndex{}
}

package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// Snapcheck proves the one world lifecycle — Snapshot captures, Restore
// applies — field by field, in both directions.
//
// Capture side: for every struct type with a niladic single-result
// Snapshot (or snapshot) method, each field must be either read by
// Snapshot (captured into the snapshot value, asserted quiescent, or
// handed to a helper), or explicitly annotated `// snap: keep`. A field
// that is neither is the add-a-field-forget-the-snapshot bug: a restored
// world would silently resume with the recycled world's value of that
// field instead of the captured one. A type that only inherits Snapshot
// from an embedded struct captures that embedded field and nothing else,
// so every field it adds needs the annotation.
//
// Restore side: every field of the value Snapshot returns must be read
// by the same type's Restore, restore or Fork (or a sibling method they
// call), or carry `// restore: keep` on the snapshot struct. A captured
// field nothing applies is the other half of the same bug — and since
// returning to time zero is itself a Restore of the image taken when
// construction ended, this is also what guarantees a recycled world
// leaks nothing from its previous run.
//
// Mention suffices on both sides: Snapshot and Restore legitimately touch
// fields in many shapes (copy them, assert on them, pass them to sibling
// helpers), and all of them require the author to have considered the
// field. The analyzer's job is to force that consideration, not to prove
// the capture is deep enough.
//
// The annotations must excuse something: `// snap: keep` outside a
// snapshot target and `// restore: keep` outside a snapshot value are
// reported as unused.
var Snapcheck = &Analyzer{
	Name: "snapcheck",
	Doc: "every field of a type with a Snapshot method must be read by " +
		"Snapshot or annotated `// snap: keep`, and every field of the " +
		"snapshot it returns must be read by Restore or annotated `// restore: keep`; " +
		"an annotation that excuses nothing is reported",
	Run: runSnapcheck,
}

// restoreFamily names the methods that apply a snapshot.
var restoreFamily = []string{"Restore", "restore", "Fork"}

// snapTarget is one struct type that has a snapshot method, its own or
// one promoted from an embedded struct.
type snapTarget struct {
	name    string
	decl    *ast.StructType
	methods map[string]*ast.FuncDecl // the type's own methods, by name
	snap    *ast.FuncDecl            // own Snapshot/snapshot declaration, nil when promoted
	via     string                   // embedded field the promoted method comes through
	value   *types.Named             // struct type of the value an own Snapshot returns, nil if not a local struct
}

// snapTargets finds every snapshot-bearing struct type of the package,
// sorted by name.
func snapTargets(pass *Pass) []*snapTarget {
	structs := structDecls(pass)
	methods := map[string]map[string]*ast.FuncDecl{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if d, ok := decl.(*ast.FuncDecl); ok {
				if recv := receiverTypeName(d); recv != "" {
					if methods[recv] == nil {
						methods[recv] = map[string]*ast.FuncDecl{}
					}
					methods[recv][d.Name.Name] = d
				}
			}
		}
	}
	names := make([]string, 0, len(structs))
	for name := range structs {
		names = append(names, name)
	}
	sort.Strings(names)

	var targets []*snapTarget
	for _, name := range names {
		tn, ok := pass.Pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		mset := types.NewMethodSet(types.NewPointer(named))
		for _, mname := range []string{"Snapshot", "snapshot"} {
			sel := mset.Lookup(pass.Pkg, mname)
			if sel == nil {
				continue
			}
			sig := sel.Obj().Type().(*types.Signature)
			if sig.Params().Len() != 0 || sig.Results().Len() != 1 {
				continue
			}
			t := &snapTarget{name: name, decl: structs[name], methods: methods[name]}
			if len(sel.Index()) > 1 {
				t.via = st.Field(sel.Index()[0]).Name()
			} else {
				t.snap = methods[name][mname]
				t.value = snapshotValue(pass, t.snap, sig)
			}
			targets = append(targets, t)
			break
		}
	}
	return targets
}

// snapshotValue resolves the struct type of the value a Snapshot method
// returns: its declared result, or — when that is an interface such as
// any — the type of the expressions it actually returns. Pointers are
// looked through; anything but a struct declared in this package is nil.
func snapshotValue(pass *Pass, snap *ast.FuncDecl, sig *types.Signature) *types.Named {
	candidates := []types.Type{sig.Results().At(0).Type()}
	if _, isIface := candidates[0].Underlying().(*types.Interface); isIface && snap != nil && snap.Body != nil {
		candidates = candidates[:0]
		ast.Inspect(snap.Body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			if ret, ok := n.(*ast.ReturnStmt); ok && len(ret.Results) == 1 {
				candidates = append(candidates, pass.TypesInfo.TypeOf(ret.Results[0]))
			}
			return true
		})
	}
	for _, c := range candidates {
		if named := localStruct(pass, c); named != nil {
			return named
		}
	}
	return nil
}

// localStruct returns t (through one pointer) as a named struct type
// declared in the pass's package, or nil.
func localStruct(pass *Pass, t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() != pass.Pkg {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named
}

// structDecls indexes the package-level struct type declarations by name.
func structDecls(pass *Pass) map[string]*ast.StructType {
	structs := map[string]*ast.StructType{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if gd, ok := decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						if st, ok := ts.Type.(*ast.StructType); ok {
							structs[ts.Name.Name] = st
						}
					}
				}
			}
		}
	}
	return structs
}

func runSnapcheck(pass *Pass) {
	structs := structDecls(pass)
	targets := snapTargets(pass)
	for _, t := range targets {
		checkCaptureSide(pass, t)
		if t.value != nil {
			checkRestoreSide(pass, t, structs[t.value.Obj().Name()])
		}
	}
	checkKeepAnnotations(pass, targets)
}

// checkKeepAnnotations reports `// snap: keep` on a field of a struct
// that is not a snapshot target, and `// restore: keep` on a field of a
// struct no Snapshot returns: the annotation excuses nothing there, and
// usually means the method it talked to moved or was removed. Only
// field-attached comments count — prose mentions of the markers
// elsewhere are not annotations.
func checkKeepAnnotations(pass *Pass, targets []*snapTarget) {
	snapTypes, valueTypes := map[string]bool{}, map[string]bool{}
	for _, t := range targets {
		snapTypes[t.name] = true
		if t.value != nil {
			valueTypes[t.value.Obj().Name()] = true
		}
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if fieldSnapKept(field) && !snapTypes[ts.Name.Name] {
					pass.Reportf(field.Pos(),
						"unused `// snap: keep`: %s has no Snapshot method for the annotation to excuse this field from",
						ts.Name.Name)
				}
				if fieldAnnotated(field, "restore: keep") && !valueTypes[ts.Name.Name] {
					pass.Reportf(field.Pos(),
						"unused `// restore: keep`: no Snapshot method returns a %s for a Restore to skip this field of",
						ts.Name.Name)
				}
			}
			return true
		})
	}
}

func checkCaptureSide(pass *Pass, t *snapTarget) {
	captured := map[string]bool{t.via: true}
	if t.snap != nil {
		for _, fd := range siblingClosure(t, t.snap) {
			recv := receiverIdentName(fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				// r.f in any shape — r.f.x, r.f[i], &r.f — contains the
				// selector r.f itself, so looking at selectors whose
				// operand is the receiver sees every mention.
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && id.Name == recv {
					captured[receiverField(pass, sel)] = true
				}
				return true
			})
		}
	}
	for _, field := range t.decl.Fields.List {
		if fieldSnapKept(field) {
			continue
		}
		if len(field.Names) == 0 {
			if n := embeddedFieldName(field.Type); n != "" && !captured[n] {
				pass.Reportf(field.Pos(),
					"(*%s).Snapshot does not capture embedded field %s; read it or annotate `// snap: keep`",
					t.name, n)
			}
			continue
		}
		for _, id := range field.Names {
			if id.Name == "_" || captured[id.Name] {
				continue
			}
			pass.Reportf(id.Pos(),
				"(*%s).Snapshot does not capture field %s; read it or annotate `// snap: keep`",
				t.name, id.Name)
		}
	}
}

// receiverField names the receiver's own field a selector on the
// receiver goes through: the field itself, or — for a field or method
// promoted from an embedded struct (r.stats for r.core.stats) — the
// embedded field. A direct method call names no field.
func receiverField(pass *Pass, sel *ast.SelectorExpr) string {
	s := pass.TypesInfo.Selections[sel]
	if s == nil || (s.Kind() != types.FieldVal && len(s.Index()) == 1) {
		return ""
	}
	t := s.Recv()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.Underlying().(*types.Struct).Field(s.Index()[0]).Name()
}

// checkRestoreSide reports every field of the snapshot value type that
// no restore-family method of t reads. valueDecl is that type's syntax
// (for the keep annotations). A type with no restore-family method at
// all is left alone: there is nothing to compare the capture against.
func checkRestoreSide(pass *Pass, t *snapTarget, valueDecl *ast.StructType) {
	var restores []*ast.FuncDecl
	for _, name := range restoreFamily {
		if fd := t.methods[name]; fd != nil {
			restores = append(restores, fd)
		}
	}
	if valueDecl == nil || len(restores) == 0 {
		return
	}
	value := t.value.Underlying().(*types.Struct)
	read := map[string]bool{}
	// wholesale: the snapshot struct itself (not a pointer to it)
	// assigned or passed on, which applies every field at once.
	wholesale := func(exprs []ast.Expr) {
		for _, e := range exprs {
			if types.Identical(pass.TypesInfo.TypeOf(e), t.value) {
				for i := 0; i < value.NumFields(); i++ {
					read[value.Field(i).Name()] = true
				}
			}
		}
	}
	for _, fd := range siblingClosure(t, restores...) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if sel := pass.TypesInfo.Selections[n]; sel != nil && sel.Kind() == types.FieldVal &&
					localStruct(pass, sel.Recv()) == t.value {
					read[value.Field(sel.Index()[0]).Name()] = true
				}
			case *ast.AssignStmt:
				wholesale(n.Rhs)
			case *ast.CallExpr:
				wholesale(n.Args)
			}
			return true
		})
	}
	for _, field := range valueDecl.Fields.List {
		if fieldAnnotated(field, "restore: keep") {
			continue
		}
		for _, id := range field.Names {
			if id.Name == "_" || read[id.Name] {
				continue
			}
			pass.Reportf(id.Pos(),
				"(*%s).%s does not read field %s of the %s its Snapshot returns; apply it or annotate `// restore: keep`",
				t.name, restores[0].Name.Name, id.Name, t.value.Obj().Name())
		}
	}
}

// siblingClosure returns the given methods of t plus every method of t
// they reach through calls on their receiver (r.helper()), transitively
// and in discovery order, so capture and restore logic may be factored
// out into helpers.
func siblingClosure(t *snapTarget, roots ...*ast.FuncDecl) []*ast.FuncDecl {
	seen := map[*ast.FuncDecl]bool{}
	var out []*ast.FuncDecl
	var walk func(fd *ast.FuncDecl)
	walk = func(fd *ast.FuncDecl) {
		recv := receiverIdentName(fd)
		if seen[fd] || fd.Body == nil || recv == "" {
			return
		}
		seen[fd] = true
		out = append(out, fd)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && id.Name == recv && t.methods[sel.Sel.Name] != nil {
						walk(t.methods[sel.Sel.Name])
					}
				}
			}
			return true
		})
	}
	for _, fd := range roots {
		walk(fd)
	}
	return out
}

func receiverTypeName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	// Generic receivers look like Queue[T].
	if idx, ok := t.(*ast.IndexExpr); ok {
		t = idx.X
	}
	if idx, ok := t.(*ast.IndexListExpr); ok {
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

func receiverIdentName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 || len(fn.Recv.List[0].Names) == 0 {
		return ""
	}
	return fn.Recv.List[0].Names[0].Name
}

func embeddedFieldName(t ast.Expr) string {
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch e := t.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

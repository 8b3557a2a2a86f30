package analysis

import (
	"go/ast"
	"strings"
)

// Waiverdrift keeps the waiver vocabulary honest: every directive in
// the tree must still attach to a construct its analyzer recognises.
// Refactoring moves code out from under its waiver silently — the
// directive lingers as misleading documentation while the thing it
// excused is gone (or worse, the waiver now excuses something new).
// For each directive occurrence the analyzer re-derives the anchor its
// consumer would look for: a map range under //ntblint:ordered, an
// allocfree doc comment on a function, an allocok inside an allocfree
// body, a core-count read under //ntblint:cpupolicy, a type declaration
// under //ntblint:notlink, a Snapshot method behind `// snap: keep`
// field annotations, and a snapshot struct behind `// restore: keep`.
// Unanchored directives and unknown directive names are reported.
var Waiverdrift = &Analyzer{
	Name: "waiverdrift",
	Doc: "report ntblint directives and keep-annotations that no " +
		"longer attach to a construct their analyzer recognises",
	Run: runWaiverdrift,
}

// knownDirectives enumerates the ntblint directive vocabulary.
var knownDirectives = map[string]bool{
	DirectiveOrdered:   true,
	DirectiveAllocOK:   true,
	DirectiveAllocFree: true,
	DirectiveCPUPolicy: true,
	DirectiveNotLink:   true,
}

func runWaiverdrift(pass *Pass) {
	anchors := collectAnchors(pass)
	for _, file := range pass.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				checkDirectiveComment(pass, anchors, c)
			}
		}
	}
	checkKeepAnnotations(pass)
}

// driftAnchors holds the per-file line sets each directive kind may
// legitimately attach to.
type driftAnchors struct {
	mapRanges map[string]map[int]bool // map-range statement start lines
	funcDocs  map[string]map[int]bool // lines inside FuncDecl doc comments
	allocBody map[string]map[int]bool // lines inside //ntblint:allocfree bodies
	cpuCalls  map[string]map[int]bool // runtime.NumCPU/GOMAXPROCS call lines
	typeDecls map[string]map[int]bool // TypeSpec lines and their doc spans
}

func markLine(m map[string]map[int]bool, file string, line int) {
	lines := m[file]
	if lines == nil {
		lines = map[int]bool{}
		m[file] = lines
	}
	lines[line] = true
}

func markSpan(m map[string]map[int]bool, file string, from, to int) {
	for l := from; l <= to; l++ {
		markLine(m, file, l)
	}
}

// collectAnchors walks the package once and records every construct a
// directive could attach to.
func collectAnchors(pass *Pass) *driftAnchors {
	a := &driftAnchors{
		mapRanges: map[string]map[int]bool{},
		funcDocs:  map[string]map[int]bool{},
		allocBody: map[string]map[int]bool{},
		cpuCalls:  map[string]map[int]bool{},
		typeDecls: map[string]map[int]bool{},
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Doc != nil {
					from, to := pass.Fset.Position(n.Doc.Pos()), pass.Fset.Position(n.Doc.End())
					markSpan(a.funcDocs, from.Filename, from.Line, to.Line)
				}
				if HasDirective(n.Doc, DirectiveAllocFree) && n.Body != nil {
					from, to := pass.Fset.Position(n.Body.Pos()), pass.Fset.Position(n.Body.End())
					markSpan(a.allocBody, from.Filename, from.Line, to.Line)
				}
			case *ast.RangeStmt:
				if isMapType(pass.TypesInfo.TypeOf(n.X)) {
					at := pass.Fset.Position(n.Pos())
					markLine(a.mapRanges, at.Filename, at.Line)
				}
			case *ast.CallExpr:
				if fn := calleeFunc(pass, n); fn != nil && fn.Pkg() != nil &&
					fn.Pkg().Path() == "runtime" &&
					(fn.Name() == "NumCPU" || fn.Name() == "GOMAXPROCS") {
					at := pass.Fset.Position(n.Pos())
					markLine(a.cpuCalls, at.Filename, at.Line)
				}
			case *ast.GenDecl:
				for _, spec := range n.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					at := pass.Fset.Position(ts.Pos())
					markLine(a.typeDecls, at.Filename, at.Line)
					for _, doc := range []*ast.CommentGroup{ts.Doc, n.Doc} {
						if doc != nil {
							from, to := pass.Fset.Position(doc.Pos()), pass.Fset.Position(doc.End())
							markSpan(a.typeDecls, from.Filename, from.Line, to.Line)
						}
					}
				}
			}
			return true
		})
	}
	return a
}

// checkDirectiveComment validates one //ntblint: comment against the
// anchor its analyzer would look for. A waiver placed on line C excuses
// a construct on C or C+1 (Waived's contract), so both lines count.
func checkDirectiveComment(pass *Pass, anchors *driftAnchors, c *ast.Comment) {
	text := strings.TrimSpace(c.Text)
	if !strings.HasPrefix(text, directivePrefix) {
		return
	}
	name := strings.TrimPrefix(text, directivePrefix)
	if i := strings.IndexAny(name, " \t"); i >= 0 {
		name = name[:i]
	}
	if !knownDirectives[name] {
		pass.Reportf(c.Pos(), "unknown directive //ntblint:%s (see LINT.md for the directive vocabulary)", name)
		return
	}
	at := pass.Fset.Position(c.Pos())
	anchored := false
	switch name {
	case DirectiveOrdered:
		anchored = anchors.mapRanges[at.Filename][at.Line] || anchors.mapRanges[at.Filename][at.Line+1]
	case DirectiveAllocFree:
		anchored = anchors.funcDocs[at.Filename][at.Line]
	case DirectiveAllocOK:
		anchored = anchors.allocBody[at.Filename][at.Line] || anchors.allocBody[at.Filename][at.Line+1]
	case DirectiveCPUPolicy:
		anchored = anchors.cpuCalls[at.Filename][at.Line] || anchors.cpuCalls[at.Filename][at.Line+1]
	case DirectiveNotLink:
		anchored = anchors.typeDecls[at.Filename][at.Line] || anchors.typeDecls[at.Filename][at.Line+1]
	}
	if !anchored {
		pass.Reportf(c.Pos(),
			"orphaned //ntblint:%s: no %s on this line or the next — the waived construct moved or was removed; delete the directive",
			name, anchorDescription(name))
	}
}

// anchorDescription names what each directive must attach to, for the
// diagnostic text.
func anchorDescription(name string) string {
	switch name {
	case DirectiveOrdered:
		return "range over a map"
	case DirectiveAllocFree:
		return "function doc comment"
	case DirectiveAllocOK:
		return "statement inside an //ntblint:allocfree function"
	case DirectiveCPUPolicy:
		return "runtime.NumCPU/GOMAXPROCS call"
	case DirectiveNotLink:
		return "type declaration"
	}
	return "recognised construct"
}

// checkKeepAnnotations validates `// snap: keep` and `// restore: keep`
// field annotations: the annotated field's struct must still have the
// Snapshot method (its own or a promoted one) the first talks to, or
// still be the value some Snapshot returns for the second. Only
// field-attached comments are considered — prose mentions of the
// markers elsewhere are not annotations.
func checkKeepAnnotations(pass *Pass) {
	snapTypes, valueTypes := map[string]bool{}, map[string]bool{}
	for _, t := range snapTargets(pass) {
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
						"orphaned `// snap: keep`: %s has no Snapshot method for the annotation to excuse this field from",
						ts.Name.Name)
				}
				if fieldAnnotated(field, "restore: keep") && !valueTypes[ts.Name.Name] {
					pass.Reportf(field.Pos(),
						"orphaned `// restore: keep`: no Snapshot method returns a %s for a Restore to skip this field of",
						ts.Name.Name)
				}
			}
			return true
		})
	}
}

package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Waiver and annotation directives. All are ordinary line comments:
//
//	//ntblint:ordered    — on (or on the line above) a `for … range m`
//	                       over a map: iteration order provably does not
//	                       affect simulation results or rendered output.
//	//ntblint:allocok    — on (or above) a statement inside an
//	                       //ntblint:allocfree function: this allocation
//	                       is deliberate (pool refill, cold start) and
//	                       the comment should say why.
//	//ntblint:allocfree  — in a function's doc comment: the body must
//	                       not allocate (checked by the allocfree
//	                       analyzer).
//	// snap: keep        — trailing a struct field: Snapshot intentionally
//	                       omits the field (identity, installed daemons,
//	                       warm buffers — infrastructure that is identical
//	                       in every quiescent world, or scratch that holds
//	                       no simulation state).
//	// restore: keep     — trailing a field of a snapshot struct: Restore
//	                       intentionally does not apply it (a record
//	                       about the capture, not captured state).
//	//ntblint:cpupolicy  — on (or above) a runtime.NumCPU/GOMAXPROCS
//	                       call in a simulation package: this is the
//	                       sanctioned parallelism-policy site, not
//	                       simulation state (checked by simdet).
//	//ntblint:notlink    — in a type's doc comment: the type resembles a
//	                       fabric.Link but is a deliberate partial
//	                       adapter, exempt from the full-lifecycle
//	                       contract (checked by fabriccontract).
const (
	DirectiveOrdered   = "ordered"
	DirectiveAllocOK   = "allocok"
	DirectiveAllocFree = "allocfree"
	DirectiveCPUPolicy = "cpupolicy"
	DirectiveNotLink   = "notlink"
)

const directivePrefix = "//ntblint:"

// directiveIndex maps file name → line → set of ntblint directives
// appearing on that line.
type directiveIndex map[string]map[int]map[string]bool

func indexDirectives(fset *token.FileSet, files []*ast.File) directiveIndex {
	idx := directiveIndex{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, directivePrefix) {
					continue
				}
				name := strings.TrimPrefix(text, directivePrefix)
				if i := strings.IndexAny(name, " \t"); i >= 0 {
					name = name[:i]
				}
				pos := fset.Position(c.Pos())
				lines := idx[pos.Filename]
				if lines == nil {
					lines = map[int]map[string]bool{}
					idx[pos.Filename] = lines
				}
				set := lines[pos.Line]
				if set == nil {
					set = map[string]bool{}
					lines[pos.Line] = set
				}
				set[name] = true
			}
		}
	}
	return idx
}

// Waived reports whether the given directive appears on the node's
// starting line or on the line immediately above it — the two
// conventional placements for a per-site waiver.
func (p *Pass) Waived(pos token.Pos, directive string) bool {
	at := p.Fset.Position(pos)
	lines := p.directives[at.Filename]
	if lines == nil {
		return false
	}
	return lines[at.Line][directive] || lines[at.Line-1][directive]
}

// HasDirective reports whether any comment in the group carries the
// named ntblint directive (used for //ntblint:allocfree in func docs).
func HasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(c.Text)
		if strings.HasPrefix(text, directivePrefix) &&
			strings.TrimPrefix(text, directivePrefix) == directive {
			return true
		}
	}
	return false
}

// fieldSnapKept reports whether a struct field carries the
// `// snap: keep` annotation, in either its doc comment or its trailing
// comment.
func fieldSnapKept(field *ast.Field) bool {
	return fieldAnnotated(field, "snap: keep")
}

func fieldAnnotated(field *ast.Field, marker string) bool {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if strings.Contains(c.Text, marker) {
				return true
			}
		}
	}
	return false
}

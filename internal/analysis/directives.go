package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Waiver and annotation directives, all ordinary line comments:
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
//	//ntblint:cpupolicy  — on (or above) a runtime.NumCPU/GOMAXPROCS
//	                       call in a simulation package: this is the
//	                       sanctioned parallelism-policy site, not
//	                       simulation state (checked by simdet).
//
// Each directive has one owning analyzer (directiveOwners), which
// records every occurrence it matches through Pass.Waived or
// Pass.HasDirective; the runner reports the rest.
const (
	DirectiveOrdered   = "ordered"
	DirectiveAllocOK   = "allocok"
	DirectiveAllocFree = "allocfree"
	DirectiveCPUPolicy = "cpupolicy"
)

// directiveOwners maps each directive to the analyzer that consults it
// and the construct it must sit on, for the unused-directive report.
var directiveOwners = map[string]struct{ owner, anchor string }{
	DirectiveOrdered:   {"simdet", "range over a map on this line or the next"},
	DirectiveCPUPolicy: {"simdet", "runtime.NumCPU/GOMAXPROCS call on this line or the next"},
	DirectiveAllocFree: {"allocfree", "function declaration this doc comment belongs to"},
	DirectiveAllocOK:   {"allocfree", "allocation inside an //ntblint:allocfree function on this line or the next"},
}

const directivePrefix = "//ntblint:"

// directive is one //ntblint: comment of a package.
type directive struct {
	name    string
	pos     token.Pos
	file    string
	line    int
	matched bool // an analyzer consulted it at a construct it waives
}

// indexDirectives collects the package's directives in source order.
func indexDirectives(fset *token.FileSet, files []*ast.File) []*directive {
	var dirs []*directive
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
				at := fset.Position(c.Pos())
				dirs = append(dirs, &directive{name: name, pos: c.Pos(), file: at.Filename, line: at.Line})
			}
		}
	}
	return dirs
}

// Waived reports whether the given directive appears on the node's
// starting line or on the line immediately above it — the two
// conventional placements for a per-site waiver — and records every
// such occurrence as matched.
func (p *Pass) Waived(pos token.Pos, directive string) bool {
	at := p.Fset.Position(pos)
	waived := false
	for _, d := range p.directives {
		if d.name == directive && d.file == at.Filename && (d.line == at.Line || d.line == at.Line-1) {
			d.matched = true
			waived = true
		}
	}
	return waived
}

// HasDirective reports whether any comment in the group carries the
// named ntblint directive (used for //ntblint:allocfree in func docs),
// and records it as matched.
func (p *Pass) HasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	found := false
	for _, d := range p.directives {
		if d.name == directive && doc.Pos() <= d.pos && d.pos < doc.End() {
			d.matched = true
			found = true
		}
	}
	return found
}

// unmatchedDirectives is the rule behind every waiver: one its owner
// never matched excuses nothing, so it is reported under the owner's
// name (when the owner is in the suite that ran), as is any name
// outside the vocabulary. A waiver left behind by a refactor would
// otherwise linger as misleading documentation, or silently excuse
// whatever moves under it next.
func unmatchedDirectives(fset *token.FileSet, dirs []*directive, analyzers []*Analyzer) []Diagnostic {
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	var out []Diagnostic
	for _, d := range dirs {
		own, known := directiveOwners[d.name]
		switch {
		case !known:
			out = append(out, Diagnostic{fset.Position(d.pos), "ntblint",
				fmt.Sprintf("unknown directive //ntblint:%s (see LINT.md for the directive vocabulary)", d.name)})
		case ran[own.owner] && !d.matched:
			out = append(out, Diagnostic{fset.Position(d.pos), own.owner,
				fmt.Sprintf("unused //ntblint:%s: no %s; the waived construct moved or was removed, so delete the directive", d.name, own.anchor)})
		}
	}
	return out
}

// Package analysis is the repository's static-analysis toolkit: a small,
// dependency-free core modelled on golang.org/x/tools/go/analysis plus
// the ntblint analyzers that machine-check the simulator's determinism
// and hot-path invariants (see LINT.md).
//
// The x/tools module is deliberately not imported — the reproduction
// builds with the standard library alone — so this package re-creates
// the two pieces of go/analysis it needs: an Analyzer/Pass/Diagnostic
// vocabulary and a loader that parses and type-checks packages with the
// stdlib source importer. The API mirrors go/analysis closely enough
// that porting an analyzer between the two is mechanical.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named, self-contained check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and waivers.
	Name string

	// Doc is a one-paragraph description of what the analyzer reports.
	Doc string

	// Match restricts which packages the runner hands to the analyzer;
	// nil means every loaded package. Fixture tests bypass Match and
	// run the analyzer directly.
	Match func(pkgPath string) bool

	// Run inspects one package and reports findings through the pass.
	Run func(pass *Pass)
}

// Analyzers returns the full ntblint suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{Simdet, Allocfree}
}

// Pass carries one package's syntax and type information to an
// analyzer's Run function, and collects its diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	directives []*directive // shared by every pass over the package
	diags      []Diagnostic
}

// Diagnostic is one finding, carrying a resolved source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the canonical file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies each analyzer to each package it matches, then reports
// the package's directives that no analyzer matched (see
// unmatchedDirectives), and returns the combined findings sorted by
// position, so output is stable regardless of package or analyzer
// order.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range pkgs {
		dirs := indexDirectives(pkg.Fset, pkg.Files)
		for _, a := range analyzers {
			if a.Match != nil && !a.Match(pkg.Path) {
				continue
			}
			pass := &Pass{
				Analyzer:   a,
				Fset:       pkg.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				TypesInfo:  pkg.Info,
				directives: dirs,
			}
			a.Run(pass)
			out = append(out, pass.diags...)
		}
		out = append(out, unmatchedDirectives(pkg.Fset, dirs, analyzers)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

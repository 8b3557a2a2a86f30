package analysis

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe matches an expectation comment: `// want "substring"`. The
// quoted text must appear in a diagnostic reported on the same line.
var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

type expectation struct {
	file string // base name
	line int
	sub  string
	hit  bool
}

// collectWants scans every non-test Go file in dir for `// want`
// comments.
func collectWants(t *testing.T, dir string) []*expectation {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	var wants []*expectation
	for _, e := range ents {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			for _, m := range wantRe.FindAllStringSubmatch(sc.Text(), -1) {
				wants = append(wants, &expectation{file: name, line: line, sub: m[1]})
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return wants
}

// runFixture type-checks testdata/src/<name>, runs the analyzer, and
// verifies the diagnostics match the fixture's `// want` comments
// exactly: every expectation is reported, and nothing unexpected is.
// Waiver honoring is checked implicitly — a waived site carries no
// `// want`, so a diagnostic there fails the run.
func runFixture(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	pkg, err := LoadDir(dir, "fixture/"+name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	diags := Run([]*Package{pkg}, []*Analyzer{a})
	wants := collectWants(t, dir)
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no `// want` comments", name)
	}
	for _, d := range diags {
		base := filepath.Base(d.Pos.Filename)
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == base && w.line == d.Pos.Line && strings.Contains(d.Message, w.sub) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic containing %q, got none", w.file, w.line, w.sub)
		}
	}
}

func TestSimdetFixture(t *testing.T) { runFixture(t, Simdet, "simdet") }

// TestSuiteCleanOnRepo is the self-host check: the merged tree must lint
// clean under the full suite, scoped exactly as cmd/ntblint
// scopes it (ApplyRepoScopes is the shared source of truth).
func TestSuiteCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	pkgs, err := Load("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	analyzers := Analyzers()
	saved := make([]func(string) bool, len(analyzers))
	for i, a := range analyzers {
		saved[i] = a.Match
	}
	defer func() {
		for i, a := range analyzers {
			a.Match = saved[i]
		}
	}()
	ApplyRepoScopes(analyzers)
	if len(analyzers) != 1 || analyzers[0] != Simdet {
		t.Fatalf("suite has %d analyzers, want simdet alone", len(analyzers))
	}
	for _, d := range Run(pkgs, analyzers) {
		t.Errorf("%s", d)
	}
}

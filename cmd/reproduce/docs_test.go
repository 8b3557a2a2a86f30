package main

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameWhatExists holds the commands the top-level documents
// quote to the tree, as TestReproduceOutputIsCurrent holds the output:
// every backticked `make <target>` must name a Makefile target, every
// `go run` or `go test` package path an existing directory, every
// `go test … -run/-bench/-fuzz <pattern>` must match a test, benchmark
// or fuzz target in the packages it names, and every `reproduce
// <subcommand> -<flag>` must name a subcommand and a flag it takes.
// It reads the documents that describe the tree as it stands: a log of
// past changes keeps the names of its day, and a plan names changes not
// yet made, so neither is read. A new document that describes the tree
// belongs in this list.
func TestDocsNameWhatExists(t *testing.T) {
	root := filepath.Join("..", "..")
	docs := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "LINT.md", "PROTOCOL.md", "PAPER.md", "PAPERS.md", "SNIPPETS.md"}
	targets := makeTargets(t, filepath.Join(root, "Makefile"))
	funcs := testFuncs(t, root)
	flags := reproduceFlags(t)
	for _, doc := range docs {
		text, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range codeSpans(string(text)) {
			for _, cmd := range strings.FieldsFunc(span, func(r rune) bool { return r == '|' || r == ';' || r == '(' || r == ')' }) {
				for _, problem := range checkCommand(root, strings.Fields(cmd), targets, funcs, flags) {
					t.Errorf("%s: `%s`: %s", filepath.Base(doc), strings.TrimSpace(cmd), problem)
				}
			}
		}
	}
}

// codeSpans returns the inline code spans of a Markdown text and the
// lines of its fenced code blocks.
func codeSpans(text string) []string {
	var spans []string
	fenced := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			spans = append(spans, strings.SplitN(line, "#", 2)[0])
			continue
		}
		parts := strings.Split(line, "`")
		for i := 1; i < len(parts)-1; i += 2 {
			spans = append(spans, parts[i])
		}
	}
	return spans
}

// checkCommand checks one command's words against the tree and reports
// what it names that does not exist.
func checkCommand(root string, words []string, targets map[string]bool, funcs map[string][]string, flags map[string]map[string]bool) []string {
	var problems []string
	for i := 0; i < len(words); i++ {
		if w := words[i]; w == "go" && i+1 < len(words) && (words[i+1] == "run" || words[i+1] == "test") {
			for _, a := range words[i+2:] {
				if path := strings.TrimSuffix(a, "/..."); strings.HasPrefix(a, "./") && !placeholder(path) {
					if info, err := os.Stat(filepath.Join(root, path)); err != nil || !info.IsDir() {
						problems = append(problems, "no package "+a)
					}
				}
			}
		}
		switch w := words[i]; {
		case w == "make" && i == 0:
			for _, target := range words[1:] {
				if placeholder(target) || strings.HasPrefix(target, "-") || strings.Contains(target, "=") {
					break
				}
				if !targets[target] {
					problems = append(problems, "no Makefile target "+target)
				}
			}
			return problems
		case w == "go" && i+1 < len(words) && words[i+1] == "test":
			return append(problems, checkGoTest(words[i+2:], funcs)...)
		case w == "reproduce" || strings.HasSuffix(w, "/reproduce"):
			return append(problems, checkReproduce(words[i+1:], flags)...)
		}
	}
	return problems
}

// checkGoTest checks the -run, -bench and -fuzz patterns of a go test
// command against the test functions of the packages it names (all of
// them for ./... or none).
func checkGoTest(args []string, funcs map[string][]string) []string {
	var pkgs []string
	patterns := map[string]string{}
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "-run" || a == "-bench" || a == "-fuzz":
			if i+1 < len(args) {
				patterns[a] = strings.Trim(args[i+1], `'"`)
				i++
			}
		case strings.HasPrefix(a, "./") || a == ".":
			pkgs = append(pkgs, a)
		}
	}
	var names []string
	for dir, fns := range funcs {
		if inScope(dir, pkgs) {
			names = append(names, fns...)
		}
	}
	var problems []string
	for flag, pattern := range patterns {
		if placeholder(pattern) || pattern == "^$" || pattern == "xxx" {
			continue // the idioms for "no test", which only a benchmark or fuzz run wants
		}
		re, err := regexp.Compile(strings.SplitN(pattern, "/", 2)[0])
		if err != nil {
			problems = append(problems, flag+" "+pattern+": "+err.Error())
			continue
		}
		prefix := map[string]string{"-run": "Test", "-bench": "Benchmark", "-fuzz": "Fuzz"}[flag]
		found := false
		for _, name := range names {
			kind := prefix
			if flag == "-run" && strings.HasPrefix(name, "Fuzz") {
				kind = "Fuzz" // -run also runs a fuzz target's seed corpus
			}
			if strings.HasPrefix(name, kind) && re.MatchString(name) {
				found = true
				break
			}
		}
		if !found {
			problems = append(problems, flag+" "+pattern+" matches nothing in "+strings.Join(pkgs, " "))
		}
	}
	return problems
}

// inScope reports whether package directory dir is among pkgs.
func inScope(dir string, pkgs []string) bool {
	if len(pkgs) == 0 {
		return true
	}
	for _, p := range pkgs {
		if p == "./..." || p == "." && dir == "." || filepath.Clean(p) == dir ||
			strings.HasSuffix(p, "/...") && (dir == filepath.Clean(strings.TrimSuffix(p, "/...")) || strings.HasPrefix(dir, filepath.Clean(strings.TrimSuffix(p, "/..."))+"/")) {
			return true
		}
	}
	return false
}

// checkReproduce checks a reproduce invocation's subcommand and flags.
func checkReproduce(args []string, flags map[string]map[string]bool) []string {
	sub := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		if placeholder(args[0]) || strings.ContainsAny(args[0], ">&") {
			return nil
		}
		sub, args = args[0], args[1:]
		if flags[sub] == nil {
			return []string{"no subcommand " + sub}
		}
	}
	var problems []string
	for _, a := range args {
		if a == ">" || strings.HasPrefix(a, "2>") || a == "&&" {
			break
		}
		name, _, _ := strings.Cut(strings.TrimLeft(a, "-"), "=")
		if !strings.HasPrefix(a, "-") || placeholder(a) || name == "" || name == "h" || strings.Trim(name, "0123456789") == "" {
			continue
		}
		if !flags[sub][name] {
			problems = append(problems, "reproduce "+sub+" takes no flag -"+name)
		}
	}
	return problems
}

// placeholder reports whether a word stands for something rather than
// naming it: <sub>, [flags], NAME, an ellipsis.
func placeholder(w string) bool {
	return strings.ContainsAny(w, "<>[]{}…*") || strings.Contains(w, "...") && !strings.HasPrefix(w, "./")
}

// makeTargets reads the Makefile's rule names.
func makeTargets(t *testing.T, path string) map[string]bool {
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([a-zA-Z][\w-]*):`).FindAllSubmatch(text, -1) {
		targets[string(m[1])] = true
	}
	return targets
}

// testFuncs maps each package directory under root (relative, as go
// test names it: "internal/core", "." for the root) to its Test,
// Benchmark and Fuzz functions.
func testFuncs(t *testing.T, root string) map[string][]string {
	funcs := map[string][]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != root) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, _ := filepath.Rel(root, filepath.Dir(path))
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				funcs[dir] = append(funcs[dir], fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}

// reproduceFlags reads each subcommand's flags ("" for the bare
// command) from its -h usage.
func reproduceFlags(t *testing.T) map[string]map[string]bool {
	flags := map[string]map[string]bool{}
	for _, sub := range append([]string{""}, subcommandNames()...) {
		args := []string{"-h"}
		if sub != "" {
			args = []string{sub, "-h"}
		}
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("reproduce %s -h: exit %d", sub, code)
		}
		flags[sub] = map[string]bool{}
		for _, m := range regexp.MustCompile(`(?m)^\s+-([\w-]+)`).FindAllStringSubmatch(errb.String(), -1) {
			flags[sub][m[1]] = true
		}
		if len(flags[sub]) == 0 {
			t.Fatalf("reproduce %s -h lists no flags:\n%s", sub, errb.String())
		}
	}
	return flags
}

func subcommandNames() []string {
	var names []string
	for name := range subcommands {
		names = append(names, name)
	}
	return names
}

// TestDocsCheckerFindsWhatIsMissing keeps TestDocsNameWhatExists from
// passing vacuously: it must flag each missing name and only those.
func TestDocsCheckerFindsWhatIsMissing(t *testing.T) {
	root := filepath.Join("..", "..")
	targets := makeTargets(t, filepath.Join(root, "Makefile"))
	funcs := testFuncs(t, root)
	flags := reproduceFlags(t)
	for cmd, bad := range map[string]bool{
		"make lint race":   false,
		"make lint nosuch": true,
		"go test ./internal/core -run Differential":          false,
		"go test ./internal/core -run NoSuchTest":            true,
		"go test ./internal/mem -run ^$ -fuzz FuzzPagedHeap": false,
		"go test ./internal/sim -fuzz FuzzPagedHeap":         true,
		"go test -run xxx -bench Reproduce ./cmd/reproduce":  false,
		"go test -run xxx -bench Nope ./cmd/reproduce":       true,
		"go run ./cmd/reproduce -j 1 -csv":                   false,
		"go run ./cmd/reproduce -nope":                       true,
		"go run ./benchmark --seconds 1":                     false,
		"go run ./cmd/nosuch":                                true,
		"go test ./internal/nosuch/...":                      true,
		"reproduce fig10 -ablation":                          false,
		"reproduce fig10 -hosts 4":                           true,
		"reproduce figX":                                     true,
		"reproduce <sub> -h":                                 false,
	} {
		if got := len(checkCommand(root, strings.Fields(cmd), targets, funcs, flags)) > 0; got != bad {
			t.Errorf("`%s`: flagged %v, want %v", cmd, got, bad)
		}
	}
}

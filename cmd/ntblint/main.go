// Command ntblint runs the repository's custom static analyzers over
// the given package patterns (default ./...) and exits non-zero on any
// finding. It is the machine check behind the invariants the simulator's
// credibility rests on — see LINT.md for the rules and waiver
// directives.
//
//	simdet         — no wall clock, no global math/rand, no core-count
//	                 reads, no order-sensitive map iteration in the
//	                 simulation packages
//	snapcheck      — every field of a Snapshot()-able type is captured
//	                 or annotated `// snap: keep`, and every field of the
//	                 snapshot is applied by Restore or annotated
//	                 `// restore: keep`
//	allocfree      — //ntblint:allocfree functions contain no allocating
//	                 constructs
//	parkcheck      — park labels are precomputed; AfterTick tickers are
//	                 pre-allocated
//	fabriccontract — fabric.Link implementers ship the full lifecycle
//	                 contract (PROTOCOL.md §13)
//	waiverdrift    — every waiver directive still attaches to a
//	                 construct its analyzer recognises
//
// Packages are analyzed concurrently (-j workers) after a serial
// type-check load; diagnostics are merged in position order, so output
// is byte-identical at any worker count. -time prints per-analyzer
// wall-clock to stderr.
//
// Run it from the module root (import resolution shells out to the go
// command in module mode): `go run ./cmd/ntblint ./...`.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/analysis"
)

func main() {
	workers := flag.Int("j", runtime.GOMAXPROCS(0), "analysis worker count (packages analyzed concurrently)")
	timings := flag.Bool("time", false, "print per-analyzer wall-clock to stderr")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: ntblint [-j N] [-time] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := analysis.Load("", patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ntblint:", err)
		os.Exit(2)
	}

	analyzers := analysis.Analyzers()
	analysis.ApplyRepoScopes(analyzers)
	diags, times := analysis.RunParallel(pkgs, analyzers, *workers)
	for _, d := range diags {
		fmt.Println(d)
	}
	if *timings {
		for _, t := range times {
			fmt.Fprintf(os.Stderr, "ntblint: %-14s %8.1fms\n", t.Name, float64(t.Elapsed.Microseconds())/1000)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "ntblint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}

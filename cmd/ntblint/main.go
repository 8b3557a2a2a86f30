// Command ntblint runs the repository's custom static analyzers over
// the given package patterns (default ./...) and exits non-zero on any
// finding. It is the machine check behind the invariants the simulator's
// credibility rests on — see LINT.md for the rules and waiver
// directives.
//
//	simdet    — no wall clock, no global math/rand, no core-count reads,
//	            no order-sensitive map iteration in the simulation
//	            packages
//	allocfree — //ntblint:allocfree functions contain no allocating
//	            constructs
//
// A waiver directive its owning analyzer never matched, and an unknown
// //ntblint: name, are findings too.
//
// Run it from the module root (import resolution shells out to the go
// command in module mode): `go run ./cmd/ntblint ./...`.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: ntblint [packages]\n")
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
	diags := analysis.Run(pkgs, analyzers)
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "ntblint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}

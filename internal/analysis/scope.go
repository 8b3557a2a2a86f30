package analysis

import "regexp"

// SimScope matches the packages whose code must be deterministic in the
// byte-identical-results sense: the kernel, the device and protocol
// layers, the runtime, and the benchmark engine and application kernels
// that render results/.
// Other packages (examples, commands, parsing helpers) may iterate maps
// and read clocks freely. It is declared here — not in cmd/ntblint — so
// the command-line runner and the self-hosting suite test apply the
// identical scoping.
var SimScope = regexp.MustCompile(`(^|/)(internal/(sim|pcie|ntb|driver|fabric|core|mem|bench|trace)|apps)$`)

// ApplyRepoScopes installs the production Match functions on the suite:
// simdet runs on the simulation packages and the rest everywhere.
// Fixture tests run analyzers with Match unset instead, so they see
// their single-package loads unscoped.
func ApplyRepoScopes(analyzers []*Analyzer) {
	for _, a := range analyzers {
		if a.Name == Simdet.Name {
			a.Match = SimScope.MatchString
		}
	}
}

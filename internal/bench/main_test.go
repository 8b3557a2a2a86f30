package bench

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/mem"
)

// TestMain fails the package if any figure or test wrote into the
// shared zero source the sweeps' read-only put sources are, or gave the
// mem lender a block with bytes still set: the damage would show in
// whichever later point reads zeros, not the one at fault.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 && !mem.ZeroSourceIntact() {
		fmt.Fprintln(os.Stderr, "internal/bench: the shared zero source was written during the tests")
		code = 1
	}
	if code == 0 && !mem.LenderClean() {
		fmt.Fprintln(os.Stderr, "internal/bench: storage went back to the mem lender with bytes a run wrote")
		code = 1
	}
	os.Exit(code)
}

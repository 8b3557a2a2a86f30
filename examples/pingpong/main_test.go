package main

import (
	"strings"
	"testing"
)

// TestRun runs the example twice on a 3-host ring, the smallest with a
// PE that only joins the barrier: each run must complete, and both must
// print the same bytes.
func TestRun(t *testing.T) {
	var out [2]strings.Builder
	for i := range out {
		if err := run([]string{"-hosts", "3"}, &out[i]); err != nil {
			t.Fatal(err)
		}
	}
	if out[0].String() != out[1].String() {
		t.Errorf("two runs printed different output:\n%s---\n%s", out[0].String(), out[1].String())
	}
}

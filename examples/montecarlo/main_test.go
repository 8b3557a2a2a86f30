package main

import (
	"strings"
	"testing"
)

// TestRun runs the example twice at its default size: each run must pass
// the example's own checks, and both must print the same bytes.
func TestRun(t *testing.T) {
	var out [2]strings.Builder
	for i := range out {
		if err := run(nil, &out[i]); err != nil {
			t.Fatal(err)
		}
	}
	if out[0].String() != out[1].String() {
		t.Errorf("two runs printed different output:\n%s---\n%s", out[0].String(), out[1].String())
	}
}

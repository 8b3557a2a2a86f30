package fabric

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/model"
)

// TestBufPoolRefusesZeroSource: zero payloads travel as the shared zero
// source where a staging buffer would be, and every backend hands its
// staged payloads back to the pool when they are pushed. The pool must
// drop the zero source, or the next GetBuf returns it for a heap read
// to write into.
func TestBufPoolRefusesZeroSource(t *testing.T) {
	bp := bufPool{par: model.Default()}
	bp.put(mem.Zeros(4096))
	bp.put(mem.Zeros(8192)[100:])
	if len(bp.bufs) != 0 {
		t.Fatalf("the pool took %d zero-source buffer(s)", len(bp.bufs))
	}
	staged := bp.get(4096)
	bp.put(staged)
	if got := bp.get(4096); mem.IsZeroSource(got) || &got[0] != &staged[0] {
		t.Fatal("the pool did not recycle a real staging buffer")
	}
}

package fabric

import (
	"testing"

	"repro/internal/mem"
)

// TestBufPoolRefusesZeroSource: zero payloads travel as the shared zero
// source where a staging buffer would be, and every backend hands its
// staged payloads back to the pool when they are pushed. The pool must
// drop the zero source, or the next GetBuf returns it for a heap read
// to write into.
func TestBufPoolRefusesZeroSource(t *testing.T) {
	var bp bufPool
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

// TestBufPoolServesALargeChunkFromAnOlderBuffer: a small buffer pooled
// after a large one must not cost the large one. The pool once popped
// only its newest buffer, dropped it when it was too small and allocated
// afresh, so a 64 KiB relay after a 4 KiB reply lost the 64 KiB buffer.
func TestBufPoolServesALargeChunkFromAnOlderBuffer(t *testing.T) {
	mem.DrainLender()
	defer mem.DrainLender()
	var bp bufPool
	large, small := bp.get(60000), bp.get(100)
	bp.put(large)
	bp.put(small)
	if got := bp.get(60000); &got[0] != &large[0] || len(got) != 60000 {
		t.Fatal("a 60 000-byte chunk did not reuse the pooled 64 KiB buffer")
	}
	if len(bp.bufs) != 1 || &bp.bufs[0][:1][0] != &small[0] {
		t.Fatal("serving the large chunk cost the pool its small buffer")
	}
	// The smallest buffer that fits serves a small chunk.
	bp.put(large)
	if got := bp.get(10); &got[0] != &small[0] {
		t.Fatal("a 10-byte chunk took the large buffer over the small one")
	}
}

// TestBufPoolGivesBackClearedBlocks: at a quiescent point the pool
// returns every buffer to the lender, cleared over what chunks wrote.
func TestBufPoolGivesBackClearedBlocks(t *testing.T) {
	mem.DrainLender()
	defer mem.DrainLender()
	var bp bufPool
	a, b := bp.get(5000), bp.get(300)
	for i := range a {
		a[i] = 0xA5
	}
	for i := range b {
		b[i] = 0x5A
	}
	bp.put(a)
	bp.put(b)
	if bp.resident() != 8192+4096 {
		t.Fatalf("pool holds %d bytes, want %d", bp.resident(), 8192+4096)
	}
	bp.giveBack()
	if bp.resident() != 0 || mem.LenderHeld() != 8192+4096 || !mem.LenderClean() {
		t.Fatalf("after giveBack the pool holds %d bytes, the lender %d, clean %v",
			bp.resident(), mem.LenderHeld(), mem.LenderClean())
	}
}

package mem

import (
	"bytes"
	"testing"
)

func TestZeroSourceIsKnownByAddress(t *testing.T) {
	z := Zeros(1000)
	if len(z) != 1000 || !IsZeroSource(z) {
		t.Fatalf("Zeros(1000): len %d, zero source %v", len(z), IsZeroSource(z))
	}
	// Sub-slices at any offset, as a chunked put cuts them.
	for _, s := range [][]byte{z[1:], z[500:700], z[999:], Zeros(zeroSourceSize)[zeroSourceSize-1:]} {
		if !IsZeroSource(s) {
			t.Errorf("a %d-byte sub-slice of the zero source was not recognised", len(s))
		}
	}
	for _, s := range [][]byte{nil, {}, z[:0:0], make([]byte, 1000), make([]byte, 0, 8)} {
		if IsZeroSource(s) {
			t.Errorf("%d-byte slice of cap %d taken for the zero source", len(s), cap(s))
		}
	}
	// Beyond the source, Zeros is still zeros, just not shared.
	if big := Zeros(zeroSourceSize + 1); IsZeroSource(big) || !allZero(big) {
		t.Error("an oversized Zeros is not a fresh zero buffer")
	}
}

func TestZeroOrScansHostBuffers(t *testing.T) {
	if got := ZeroOr(make([]byte, 4099)); !IsZeroSource(got) || len(got) != 4099 {
		t.Error("an all-zero host buffer was not replaced by the zero source")
	}
	for _, at := range []int{0, 7, 8, 4098} {
		b := make([]byte, 4099)
		b[at] = 1
		if got := ZeroOr(b); &got[0] != &b[0] {
			t.Errorf("a buffer with byte %d set was replaced", at)
		}
	}
	if got := ZeroOr(nil); got != nil {
		t.Error("ZeroOr(nil) is not nil")
	}
}

func TestZeroSourceWriteLeavesPagesWithoutStorage(t *testing.T) {
	h := NewHeap(4*pageSize, 16*pageSize)
	off, _ := h.Alloc(3 * pageSize)
	h.Write(off+100, Zeros(2*pageSize))
	if n := h.ResidentPages(); n != 0 {
		t.Fatalf("a zero-source write to untouched pages made %d resident", n)
	}
	// Over data it is a clear in place, and a snapshot taken before it
	// keeps its image.
	data := bytes.Repeat([]byte{0xEE}, 3*pageSize)
	h.Write(off, data)
	snap := h.Snapshot()
	h.Write(off+pageSize/2, Zeros(pageSize))
	got := make([]byte, 3*pageSize)
	h.Read(off, got)
	want := append([]byte(nil), data...)
	clear(want[pageSize/2 : pageSize/2+pageSize])
	if !bytes.Equal(got, want) {
		t.Fatal("a zero-source write over data left stale bytes")
	}
	fresh := NewHeap(4*pageSize, 16*pageSize)
	fresh.Fork(snap)
	fresh.Read(off, got)
	if !bytes.Equal(got, data) {
		t.Fatal("a zero-source write reached a snapshot's copy")
	}
	if !ZeroSourceIntact() {
		t.Fatal("the zero source was written")
	}
}

// TestHeapAccessAllocatesNothing: once a page has storage, no access
// path touches the allocator: Write of data and of the zero source,
// Read, Zero, ZeroRange, and the scan a put source passes through
// (ZeroOr). The runtime's put, get and service paths reach them per chunk.
func TestHeapAccessAllocatesNothing(t *testing.T) {
	h := NewHeap(4*pageSize, 16*pageSize)
	off, _ := h.Alloc(2 * pageSize)
	data, zeros, buf := []byte{1, 2, 3}, make([]byte, 64), make([]byte, 64)
	h.Write(off, data) // the page borrows its storage once
	allocs := testing.AllocsPerRun(10, func() {
		h.Write(off, ZeroOr(data))
		h.Write(off+8, ZeroOr(zeros))
		h.Read(off, buf)
		h.Zero(off+16, 8)
		if h.ZeroRange(off, pageSize) || !h.ZeroRange(off+pageSize, pageSize) {
			t.Fatal("ZeroRange misreads the page table")
		}
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per round of heap accesses, want 0", allocs)
	}
}

func TestZeroRangeReadsThePageTableOnly(t *testing.T) {
	h := NewHeap(4*pageSize, 16*pageSize)
	off, _ := h.Alloc(4 * pageSize)
	if !h.ZeroRange(off, 4*pageSize) {
		t.Fatal("a never-written heap is not a zero range")
	}
	h.Write(off+pageSize+10, []byte{1})
	for _, tc := range []struct {
		off  int64
		n    int
		want bool
	}{
		{off, pageSize, true},                  // page 0: no storage
		{off + pageSize - 1, 2, false},         // straddles into page 1
		{off + pageSize, 8, false},             // zero bytes, but below the mark on a page with storage
		{off + 2*pageSize, 2 * pageSize, true}, // beyond the written mark
		{off + pageSize + 11, 0, true},         // empty
	} {
		if got := h.ZeroRange(tc.off, tc.n); got != tc.want {
			t.Errorf("ZeroRange(%d, %d) = %v, want %v", tc.off, tc.n, got, tc.want)
		}
	}
}

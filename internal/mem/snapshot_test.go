package mem

import "testing"

const (
	testChunk = 4096
	testMax   = 64 * testChunk
)

// fillPattern writes a deterministic byte pattern over [off, off+n).
func fillPattern(h *Heap, off int64, n int, salt byte) {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(i)*3 + salt
	}
	h.Write(off, buf)
}

// checkPattern verifies the pattern written by fillPattern.
func checkPattern(t *testing.T, h *Heap, off int64, n int, salt byte) {
	t.Helper()
	buf := make([]byte, n)
	h.Read(off, buf)
	for i := range buf {
		if want := byte(i)*3 + salt; buf[i] != want {
			t.Fatalf("byte %d at offset %d: got %#x want %#x (salt %#x)", i, off, buf[i], want, salt)
		}
	}
}

func TestSnapshotForkCopiesAndForksDiverge(t *testing.T) {
	parent := NewHeap(testChunk, testMax)
	off, err := parent.Alloc(3 * testChunk) // spans multiple chunks
	if err != nil {
		t.Fatal(err)
	}
	fillPattern(parent, off, 3*testChunk, 0x11)
	snap := parent.Snapshot()
	if snap.Written() != parent.written {
		t.Fatalf("snapshot written %d, heap written %d", snap.Written(), parent.written)
	}

	childA := NewHeap(testChunk, testMax)
	childA.Fork(snap)
	childB := NewHeap(testChunk, testMax)
	childB.Fork(snap)
	checkPattern(t, childA, off, 3*testChunk, 0x11)
	checkPattern(t, childB, off, 3*testChunk, 0x11)
	if childA.Live() != parent.Live() || childA.LiveBytes() != parent.LiveBytes() {
		t.Fatalf("fork allocator state live=%d/%d bytes=%d/%d", childA.Live(), parent.Live(), childA.LiveBytes(), parent.LiveBytes())
	}

	// Each child holds its own copy of the written pages, and nothing
	// else; the parent keeps its own.
	if childA.ResidentPages() != snap.Pages() || parent.ResidentPages() != snap.Pages() {
		t.Fatalf("resident pages: child %d, parent %d, snapshot %d", childA.ResidentPages(), parent.ResidentPages(), snap.Pages())
	}

	// Child A diverges: its write must not be visible to the parent or
	// child B.
	fillPattern(childA, off, testChunk/2, 0x77)
	checkPattern(t, childA, off, testChunk/2, 0x77)
	checkPattern(t, parent, off, 3*testChunk, 0x11)
	checkPattern(t, childB, off, 3*testChunk, 0x11)
}

func TestParentWritesAfterSnapshotDoNotLeakIntoForks(t *testing.T) {
	parent := NewHeap(testChunk, testMax)
	off, err := parent.Alloc(testChunk)
	if err != nil {
		t.Fatal(err)
	}
	fillPattern(parent, off, testChunk, 0x21)
	snap := parent.Snapshot()
	// The parent keeps running after the capture; the snapshot holds a
	// copy, so its writes reach no fork.
	fillPattern(parent, off, testChunk, 0x42)

	child := NewHeap(testChunk, testMax)
	child.Fork(snap)
	checkPattern(t, child, off, testChunk, 0x21)
	checkPattern(t, parent, off, testChunk, 0x42)
}

func TestForkResetForkRecyclesSpares(t *testing.T) {
	parent := NewHeap(testChunk, testMax)
	off, err := parent.Alloc(2 * testChunk)
	if err != nil {
		t.Fatal(err)
	}
	fillPattern(parent, off, 2*testChunk, 0x09)
	snap := parent.Snapshot()

	child := NewHeap(testChunk, testMax)
	for cycle := 0; cycle < 3; cycle++ {
		child.Fork(snap)
		checkPattern(t, child, off, 2*testChunk, 0x09)
		fillPattern(child, off, testChunk, byte(cycle))
		child.Reset()
		// After detaching, the child must read all-zero and the snapshot
		// must be intact for the next cycle.
		buf := make([]byte, 2*testChunk)
		child.Read(0, buf)
		for i, b := range buf {
			if b != 0 {
				t.Fatalf("cycle %d: byte %d nonzero (%#x) after Reset", cycle, i, b)
			}
		}
	}
	// Pages cycle through the block lender; the child never grows past
	// the snapshot's extent.
	if child.Chunks() != 2 {
		t.Fatalf("child holds %d chunks after 3 fork cycles, want 2", child.Chunks())
	}
	checkPattern(t, parent, off, 2*testChunk, 0x09)
}

func TestSnapshotOfForkedHeap(t *testing.T) {
	parent := NewHeap(testChunk, testMax)
	off, err := parent.Alloc(testChunk)
	if err != nil {
		t.Fatal(err)
	}
	fillPattern(parent, off, testChunk, 0x05)
	snap := parent.Snapshot()

	child := NewHeap(testChunk, testMax)
	child.Fork(snap)
	off2, err := child.Alloc(testChunk)
	if err != nil {
		t.Fatal(err)
	}
	fillPattern(child, off2, testChunk, 0x50)
	snap2 := child.Snapshot()

	grand := NewHeap(testChunk, testMax)
	grand.Fork(snap2)
	checkPattern(t, grand, off, testChunk, 0x05)
	checkPattern(t, grand, off2, testChunk, 0x50)
}

func TestForkAsserts(t *testing.T) {
	parent := NewHeap(testChunk, testMax)
	if _, err := parent.Alloc(64); err != nil {
		t.Fatal(err)
	}
	fillPattern(parent, 0, 64, 0x01)
	snap := parent.Snapshot()

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("geometry mismatch", func() {
		h := NewHeap(testChunk/2, testMax)
		h.Fork(snap)
	})
	mustPanic("snapshot beyond the heap's maximum", func() {
		h := NewHeap(testChunk, testChunk)
		big := NewHeap(testChunk, testMax)
		if _, err := big.Alloc(2 * testChunk); err != nil {
			t.Fatal(err)
		}
		h.Fork(big.Snapshot())
	})
}

// heapImage is everything observable about a heap: allocator state plus
// the bytes of its whole grown extent.
type heapImage struct {
	heapState
	blocks []block
	data   string
}

func imageOf(h *Heap) heapImage {
	buf := make([]byte, h.Size())
	h.Read(0, buf)
	return heapImage{heapState: h.heapState, blocks: append([]block(nil), h.blocks...), data: string(buf)}
}

func TestForkOverDirtyHeapEqualsForkOfFresh(t *testing.T) {
	// Fork is total: a heap holding live allocations, pages it wrote, and
	// pages forked from some other snapshot must come out exactly like a
	// fresh heap forked from the same snapshot — and must leave that
	// other snapshot untouched.
	parent := NewHeap(testChunk, testMax)
	off, err := parent.Alloc(2 * testChunk)
	if err != nil {
		t.Fatal(err)
	}
	fillPattern(parent, off, 2*testChunk, 0x31)
	snap := parent.Snapshot()

	other := NewHeap(testChunk, testMax)
	offO, err := other.Alloc(5 * testChunk)
	if err != nil {
		t.Fatal(err)
	}
	fillPattern(other, offO, 5*testChunk, 0x62)
	otherSnap := other.Snapshot()

	dirty := NewHeap(testChunk, testMax)
	dirty.Fork(otherSnap)                      // pages copied from otherSnap
	fillPattern(dirty, offO, testChunk/2, 0x7) // page 0 rewritten
	extra, err := dirty.Alloc(3 * testChunk)   // live allocation past the snapshot extent
	if err != nil {
		t.Fatal(err)
	}
	fillPattern(dirty, extra, 3*testChunk, 0x8) // written bytes beyond snap's
	dirty.Fork(snap)

	// The dirty heap grew further than the snapshot; a fresh heap grown
	// to the same extent first is the like-for-like reference.
	fresh := NewHeap(testChunk, testMax)
	for fresh.Size() < dirty.Size() {
		if err := fresh.grow(); err != nil {
			t.Fatal(err)
		}
	}
	fresh.Fork(snap)
	got, want := imageOf(dirty), imageOf(fresh)
	if got.heapState != want.heapState {
		t.Fatalf("allocator counters: dirty %+v, fresh %+v", got.heapState, want.heapState)
	}
	if len(got.blocks) != len(want.blocks) {
		t.Fatalf("block lists: dirty %v, fresh %v", got.blocks, want.blocks)
	}
	for i := range got.blocks {
		if got.blocks[i] != want.blocks[i] {
			t.Fatalf("block %d: dirty %+v, fresh %+v", i, got.blocks[i], want.blocks[i])
		}
	}
	if got.data != want.data {
		t.Fatal("heap bytes differ between dirty-forked and fresh-forked heaps")
	}
	checkPattern(t, dirty, off, 2*testChunk, 0x31)
	// The next allocation lands where a fresh fork would put it.
	a, errA := dirty.Alloc(testChunk)
	b, errB := fresh.Alloc(testChunk)
	if errA != nil || errB != nil || a != b {
		t.Fatalf("next allocation at %d (%v) vs %d (%v)", a, errA, b, errB)
	}
	// Neither snapshot was disturbed.
	again := NewHeap(testChunk, testMax)
	again.Fork(otherSnap)
	checkPattern(t, again, offO, 5*testChunk, 0x62)
	again.Fork(snap)
	checkPattern(t, again, off, 2*testChunk, 0x31)
	// Reset is the same operation onto the empty snapshot.
	dirty.Reset()
	if dirty.Live() != 0 || dirty.written != 0 {
		t.Fatalf("Reset left live=%d written=%d", dirty.Live(), dirty.written)
	}
	for i, b := range imageOf(dirty).data {
		if b != 0 {
			t.Fatalf("byte %d nonzero after Reset", i)
		}
	}
}

func TestForkIntoPreGrownHeap(t *testing.T) {
	// A pooled heap that grew larger in a previous life keeps its tail as
	// free space after Fork, matching what a demand-grown continuation
	// would produce for the next allocation.
	big := NewHeap(testChunk, testMax)
	if _, err := big.Alloc(4 * testChunk); err != nil {
		t.Fatal(err)
	}
	fillPattern(big, 0, 4*testChunk, 0x13)
	big.Reset()

	parent := NewHeap(testChunk, testMax)
	off, err := parent.Alloc(testChunk)
	if err != nil {
		t.Fatal(err)
	}
	fillPattern(parent, off, testChunk, 0x13)
	snap := parent.Snapshot()

	big.Fork(snap)
	checkPattern(t, big, off, testChunk, 0x13)
	off2, err := big.Alloc(testChunk)
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewHeap(testChunk, testMax)
	fresh.Fork(snap)
	off2Fresh, err := fresh.Alloc(testChunk)
	if err != nil {
		t.Fatal(err)
	}
	if off2 != off2Fresh {
		t.Fatalf("pre-grown fork allocates at %d, fresh fork at %d", off2, off2Fresh)
	}
}

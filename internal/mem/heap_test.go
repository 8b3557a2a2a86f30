package mem

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAllocBumpsInOrder(t *testing.T) {
	h := NewHeap(1<<16, 1<<20)
	a, err := h.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if a != 0 {
		t.Errorf("first alloc at %d, want 0", a)
	}
	if b != 104 { // 100 rounded to 8-byte alignment
		t.Errorf("second alloc at %d, want 104", b)
	}
}

func TestAllocAlignment(t *testing.T) {
	h := NewHeap(1<<16, 1<<20)
	for _, size := range []int{1, 3, 7, 8, 9, 15, 17, 100, 1000} {
		off, err := h.Alloc(size)
		if err != nil {
			t.Fatal(err)
		}
		if off%8 != 0 {
			t.Errorf("alloc(%d) at %d: not 8-byte aligned", size, off)
		}
	}
}

func TestAllocRejectsBadSize(t *testing.T) {
	h := NewHeap(1<<16, 1<<20)
	if _, err := h.Alloc(0); err == nil {
		t.Error("Alloc(0) succeeded")
	}
	if _, err := h.Alloc(-5); err == nil {
		t.Error("Alloc(-5) succeeded")
	}
}

func TestGrowOnDemandAndExhaustion(t *testing.T) {
	h := NewHeap(4096, 3*4096)
	if h.Chunks() != 0 {
		t.Fatal("heap should start with no chunks")
	}
	offs := make([]int64, 0, 3)
	for i := 0; i < 3; i++ {
		off, err := h.Alloc(4096)
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		offs = append(offs, off)
	}
	if h.Chunks() != 3 {
		t.Fatalf("chunks = %d, want 3", h.Chunks())
	}
	if _, err := h.Alloc(1); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("expected ErrOutOfMemory, got %v", err)
	}
	// Freeing one makes room again.
	if err := h.Free(offs[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Alloc(4096); err != nil {
		t.Fatalf("alloc after free: %v", err)
	}
}

func TestAllocationSpansChunks(t *testing.T) {
	// A single allocation larger than one chunk must still work: the
	// virtual space is contiguous even though storage is scattered.
	h := NewHeap(4096, 1<<20)
	off, err := h.Alloc(3*4096 + 17)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 3*4096+17)
	for i := range data {
		data[i] = byte(i * 7)
	}
	h.Write(off, data)
	got := make([]byte, len(data))
	h.Read(off, got)
	if !bytes.Equal(got, data) {
		t.Fatal("cross-chunk write/read mismatch")
	}
	// The allocation really does span chunks, and storage follows the
	// bytes written rather than the chunks reserved.
	if h.Chunks() < 4 {
		t.Fatalf("expected >=4 chunks, got %d", h.Chunks())
	}
	if want := int((off+int64(len(data))-1)>>pageShift) + 1; h.ResidentPages() != want {
		t.Fatalf("resident pages = %d, want %d", h.ResidentPages(), want)
	}
}

func TestFreeCoalesces(t *testing.T) {
	h := NewHeap(1<<16, 1<<20)
	a, _ := h.Alloc(1000)
	b, _ := h.Alloc(1000)
	c, _ := h.Alloc(1000)
	if err := h.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(c); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(b); err != nil {
		t.Fatal(err)
	}
	// Everything free again: a max-size alloc within one chunk must
	// land back at offset 0.
	off, err := h.Alloc(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	if off != 0 {
		t.Fatalf("post-coalesce alloc at %d, want 0", off)
	}
}

func TestFreeErrors(t *testing.T) {
	h := NewHeap(1<<16, 1<<20)
	off, _ := h.Alloc(64)
	if err := h.Free(off + 8); !errors.Is(err, ErrBadFree) {
		t.Errorf("interior free: got %v", err)
	}
	if err := h.Free(off); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(off); !errors.Is(err, ErrBadFree) {
		t.Errorf("double free: got %v", err)
	}
}

func TestBlockOf(t *testing.T) {
	h := NewHeap(1<<16, 1<<20)
	off, _ := h.Alloc(100)
	base, size, ok := h.BlockOf(off + 50)
	if !ok || base != off || size != 104 {
		t.Fatalf("BlockOf = (%d, %d, %v), want (%d, 104, true)", base, size, ok, off)
	}
	if _, _, ok := h.BlockOf(off + 104); ok {
		t.Error("BlockOf found a block past the allocation")
	}
	h.Free(off)
	if _, _, ok := h.BlockOf(off); ok {
		t.Error("BlockOf found a freed block")
	}
}

func TestReadWriteRoundTripRandomOffsets(t *testing.T) {
	h := NewHeap(4096, 1<<22)
	off, err := h.Alloc(300_000)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	shadow := make([]byte, 300_000)
	for i := 0; i < 200; i++ {
		start := rng.Intn(len(shadow) - 1)
		n := 1 + rng.Intn(len(shadow)-start)
		patch := make([]byte, n)
		rng.Read(patch)
		copy(shadow[start:], patch)
		h.Write(off+int64(start), patch)
	}
	got := make([]byte, len(shadow))
	h.Read(off, got)
	if !bytes.Equal(got, shadow) {
		t.Fatal("random patch round trip diverged from shadow copy")
	}
}

func TestOutOfRangeAccessPanics(t *testing.T) {
	h := NewHeap(4096, 1<<20)
	h.Alloc(100)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range read did not panic")
		}
	}()
	h.Read(h.Size(), make([]byte, 1))
}

// TestPropertyAllocationsNeverOverlap drives random alloc/free sequences
// and checks the core allocator invariants: no two live allocations
// overlap, accounting matches, and every byte written is read back.
func TestPropertyAllocationsNeverOverlap(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		h := NewHeap(4096, 1<<22)
		rng := rand.New(rand.NewSource(seed))
		type allocation struct {
			off  int64
			size int
			tag  byte
		}
		var live []allocation
		for _, op := range ops {
			if len(live) > 0 && op%3 == 0 {
				// Free a random live allocation.
				i := rng.Intn(len(live))
				if err := h.Free(live[i].off); err != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
				continue
			}
			size := int(op%5000) + 1
			off, err := h.Alloc(size)
			if errors.Is(err, ErrOutOfMemory) {
				continue
			}
			if err != nil {
				return false
			}
			tag := byte(rng.Intn(256))
			fill := bytes.Repeat([]byte{tag}, size)
			h.Write(off, fill)
			live = append(live, allocation{off, size, tag})
		}
		// Invariant: live accounting matches.
		if h.Live() != len(live) {
			return false
		}
		// Invariant: no overlaps.
		for i := range live {
			for j := i + 1; j < len(live); j++ {
				a, b := live[i], live[j]
				if a.off < b.off+int64(b.size) && b.off < a.off+int64(a.size) {
					return false
				}
			}
		}
		// Invariant: contents intact (no allocation scribbled on another).
		for _, a := range live {
			buf := make([]byte, a.size)
			h.Read(a.off, buf)
			for _, by := range buf {
				if by != a.tag {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyFullFreeRestoresEmptyHeap checks that freeing everything, in
// any order, always coalesces back to completely reusable space.
func TestPropertyFullFreeRestoresEmptyHeap(t *testing.T) {
	f := func(sizes []uint16, seed int64) bool {
		h := NewHeap(4096, 1<<22)
		rng := rand.New(rand.NewSource(seed))
		var offs []int64
		for _, s := range sizes {
			off, err := h.Alloc(int(s%3000) + 1)
			if errors.Is(err, ErrOutOfMemory) {
				continue
			}
			if err != nil {
				return false
			}
			offs = append(offs, off)
		}
		rng.Shuffle(len(offs), func(i, j int) { offs[i], offs[j] = offs[j], offs[i] })
		for _, off := range offs {
			if err := h.Free(off); err != nil {
				return false
			}
		}
		if h.Live() != 0 || h.LiveBytes() != 0 {
			return false
		}
		// The whole grown extent must now be one allocatable run.
		if h.Size() > 0 {
			off, err := h.Alloc(int(h.Size()))
			if err != nil || off != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicOffsetsAcrossHeaps(t *testing.T) {
	// The SPMD symmetry guarantee: two heaps fed the same alloc/free
	// sequence hand out identical offsets.
	a := NewHeap(8192, 1<<22)
	b := NewHeap(8192, 1<<22)
	seq := []int{100, 5000, 64, 9000, 1, 333}
	var aOffs, bOffs []int64
	for _, s := range seq {
		x, err := a.Alloc(s)
		if err != nil {
			t.Fatal(err)
		}
		y, err := b.Alloc(s)
		if err != nil {
			t.Fatal(err)
		}
		aOffs = append(aOffs, x)
		bOffs = append(bOffs, y)
	}
	a.Free(aOffs[2])
	b.Free(bOffs[2])
	x, _ := a.Alloc(64)
	y, _ := b.Alloc(64)
	if x != y {
		t.Fatalf("post-free allocs diverge: %d vs %d", x, y)
	}
	for i := range aOffs {
		if aOffs[i] != bOffs[i] {
			t.Fatalf("offset %d diverges: %d vs %d", i, aOffs[i], bOffs[i])
		}
	}
}

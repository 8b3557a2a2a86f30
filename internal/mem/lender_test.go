package mem

import (
	"bytes"
	"testing"
)

func TestBorrowLendsTheSmallestFreeBlockThatFits(t *testing.T) {
	DrainLender()
	defer DrainLender()
	small, big := Borrow(1, 1), Borrow(40000, 1<<20)
	if len(small) != 4096 || cap(small) != 4096 || len(big) != 1<<16 || cap(big) != 1<<16 {
		t.Fatalf("fresh blocks of %d/%d and %d/%d bytes, want 4096 and 65536", len(small), cap(small), len(big), cap(big))
	}
	Return(small[:10]) // a slice of a block gives back the whole block
	Return(big)
	if got := LenderHeld(); got != 4096+1<<16 {
		t.Fatalf("lender holds %d bytes, want %d", got, 4096+1<<16)
	}
	// 5000 bytes skip the 4 KiB block for the 64 KiB one, whole, since
	// the borrower can use up to 1 MiB of it.
	if b := Borrow(5000, 1<<20); len(b) != 1<<16 || &b[0] != &big[0] {
		t.Fatalf("Borrow(5000) lent %d bytes, not the 64 KiB block", len(b))
	}
	if b := Borrow(100, 100); len(b) != 4096 || &b[0] != &small[0] {
		t.Fatalf("Borrow(100) lent %d bytes, not the 4 KiB block", len(b))
	}
	if LenderHeld() != 0 {
		t.Fatalf("lender holds %d bytes after lending everything", LenderHeld())
	}
}

func TestBorrowSplitsABlockLargerThanTheBorrowerUses(t *testing.T) {
	DrainLender()
	defer DrainLender()
	Return(make([]byte, 1<<20))
	// A page-sized borrower takes the lower 64 KiB; the upper halves of
	// each split, 64 KiB to 512 KiB, stay lendable.
	page := Borrow(PageSize, PageSize)
	if len(page) != PageSize || cap(page) != PageSize {
		t.Fatalf("lent %d/%d bytes, want one page", len(page), cap(page))
	}
	if got := LenderHeld(); got != 1<<20-PageSize {
		t.Fatalf("lender holds %d bytes after the split, want %d", got, 1<<20-PageSize)
	}
	for _, want := range []int{1 << 16, 1 << 17, 1 << 18, 1 << 19} {
		if b := Borrow(want, want); len(b) != want || cap(b) != want {
			t.Fatalf("Borrow(%d) lent %d/%d bytes", want, len(b), cap(b))
		}
	}
	if LenderHeld() != 0 {
		t.Fatalf("lender holds %d bytes after lending every piece", LenderHeld())
	}
}

func TestReturnRefusesWhatNoBorrowLent(t *testing.T) {
	for name, b := range map[string][]byte{
		"short":       make([]byte, 100),
		"odd size":    make([]byte, 5000),
		"zero source": Zeros(4096),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Return of a %s slice did not panic", name)
				}
			}()
			Return(b)
		}()
	}
}

func TestLenderCleanSeesADirtyBlock(t *testing.T) {
	DrainLender()
	defer DrainLender()
	b := Borrow(4096, 4096)
	if !bytes.Equal(b, make([]byte, 4096)) {
		t.Fatal("a fresh block is not all zero")
	}
	b[4095] = 1
	Return(b)
	if LenderClean() {
		t.Fatal("LenderClean missed a dirty byte")
	}
}

func TestHeapPagesComeFromAndGoBackToTheLender(t *testing.T) {
	DrainLender()
	defer DrainLender()
	h := NewHeap(4*pageSize, 4*pageSize)
	off, err := h.Alloc(3 * pageSize)
	if err != nil {
		t.Fatal(err)
	}
	fillPattern(h, off, pageSize+10, 0x31) // two pages, the second 10 bytes deep
	h.ReturnStorage()
	if h.ResidentPages() != 0 || LenderHeld() != 2*pageSize || !LenderClean() {
		t.Fatalf("after ReturnStorage: %d resident pages, lender holds %d bytes, clean %v",
			h.ResidentPages(), LenderHeld(), LenderClean())
	}
	if h.Live() != 1 || !h.ZeroRange(off, 3*pageSize) {
		t.Fatal("ReturnStorage dropped the allocation or left a non-zero range")
	}
	// The next writes borrow the returned pages instead of allocating.
	fillPattern(h, off+2*pageSize, 8, 0x44)
	fillPattern(h, off, 8, 0x45)
	if LenderHeld() != 0 {
		t.Fatalf("lender still holds %d bytes after two page writes", LenderHeld())
	}
	checkPattern(t, h, off+2*pageSize, 8, 0x44)
	got := make([]byte, pageSize)
	h.Read(off+8, got)
	if !bytes.Equal(got, make([]byte, pageSize)) {
		t.Fatal("a lent page carried stale bytes")
	}
	// A snapshot keeps its own copy; Fork gives the heap's three pages
	// back and borrows one for each of the snapshot's two.
	snap := h.Snapshot()
	fillPattern(h, off+pageSize, 4, 0x46)
	h.Fork(snap)
	if LenderHeld() != pageSize || h.ResidentPages() != 2 {
		t.Fatalf("after fork the lender holds %d bytes and the heap %d pages, want one page and two",
			LenderHeld(), h.ResidentPages())
	}
	checkPattern(t, h, off, 8, 0x45)
	checkPattern(t, h, off+2*pageSize, 8, 0x44)
}

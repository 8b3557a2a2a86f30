// Package mem implements host memory for the simulated cluster, chiefly
// the paper's symmetric heap design (§III-B.2): a virtually contiguous
// address space assembled from scattered, fixed-size physical chunks that
// are allocated on demand and concatenated at the virtual level.
//
// Real OpenSHMEM implementations guarantee that a symmetric object lives
// at the same offset in every PE's symmetric heap. As in the paper, that
// property falls out of SPMD execution: every PE performs the same
// allocation sequence, and the allocator here is deterministic.
//
// Storage is demand-paged: a page nobody wrote has none and reads as
// zeros. The rule holds beyond the heap through one shared, read-only
// zero source (zero.go): a payload nobody wrote travels as a slice of
// it, which every layer recognises by address and passes on, clears or
// skips instead of copying, and which Heap.Write turns back into "no
// storage". Heap.ZeroRange tells senders when a range qualifies,
// from the page table alone.
package mem

import (
	"errors"
	"fmt"
)

// ErrOutOfMemory is returned when an allocation cannot fit even after
// growing the heap to its configured maximum.
var ErrOutOfMemory = errors.New("mem: symmetric heap exhausted")

// ErrBadFree is returned when Free is handed an address that is not the
// base of a live allocation.
var ErrBadFree = errors.New("mem: free of unallocated address")

// allocAlign is the alignment of every Alloc result. Eight bytes covers
// every type the typed put/get layer moves.
const allocAlign = 8

// block is a run of the virtual address space, either free or live.
type block struct {
	off  int64
	size int64
	free bool
}

// The chunk is the heap's virtual growth unit; storage is demand-paged
// underneath it. The virtual space is backed by a table of pageSize pages
// indexed by offset>>pageShift, independent of chunk boundaries (a chunk
// need not be a multiple of the page size). A page that was never written
// has no storage and reads as zeros, so the host memory a heap holds
// tracks the bytes its PE touched, not the bytes it reserved — as the
// paper's mmap'd chunks do under the OS. 16, 64 and 256 KiB pages
// measured the same on every benchmark workload (EXPERIMENTS.md), so the
// size is a constant, not a parameter.
const (
	pageShift = 16
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1

	// PageSize is the granularity of the heap's backing storage in bytes.
	PageSize = pageSize
)

// page is one page of storage, lent by the block lender. A nil entry in
// the page table is a page nobody has written: it reads as zeros.
type page [pageSize]byte

// Heap is a symmetric heap: offsets handed out by Alloc are virtual
// addresses within a contiguous space that grows on demand, one
// chunkSize step at a time, up to maxSize.
//
// Heap is not safe for concurrent use; in this repository all access is
// serialised by the simulation kernel.
type Heap struct {
	// heapState is the allocator counters a HeapSnapshot captures and
	// Fork assigns back whole; Fork rebuilds the page table (copying the
	// snapshot's pages in), the block list and the extent itself.
	heapState

	chunkSize int64 // construction geometry
	maxSize   int64 // construction geometry
	nchunks   int   // virtual extent, in chunks
	// pages is the page table, grown only as far as the highest page a
	// write or a fork reached; an entry past its end, like a nil one, is
	// a page nobody wrote.
	pages  []*page
	blocks []block // sorted by offset, covering [0, nchunks*chunkSize)
}

// heapState is a heap's allocator counters and its written mark.
type heapState struct {
	live      int // number of live allocations
	liveBytes int64

	// written is the high-water mark of bytes that may have been modified
	// since construction or the last Fork/Reset. Write raises it, and
	// every materialised page is zero at and beyond it, so ReturnStorage
	// re-zeroes a page it gives back only below the mark and Snapshot
	// copies only that much.
	written int64
}

// NewHeap returns an empty heap that grows in chunkSize steps up to
// maxSize total.
func NewHeap(chunkSize, maxSize int) *Heap {
	return &NewHeaps(1, chunkSize, maxSize)[0]
}

// NewHeaps returns n empty heaps of one geometry in one slab, one per PE
// of a world.
func NewHeaps(n, chunkSize, maxSize int) []Heap {
	if chunkSize <= 0 || maxSize < chunkSize {
		panic(fmt.Sprintf("mem: bad heap geometry chunk=%d max=%d", chunkSize, maxSize))
	}
	hs := make([]Heap, n)
	for i := range hs {
		hs[i] = Heap{chunkSize: int64(chunkSize), maxSize: int64(maxSize)}
	}
	return hs
}

// Size returns the current virtual extent of the heap in bytes.
func (h *Heap) Size() int64 { return int64(h.nchunks) * h.chunkSize }

// Live returns the number of live allocations.
func (h *Heap) Live() int { return h.live }

// LiveBytes returns the total bytes currently allocated.
func (h *Heap) LiveBytes() int64 { return h.liveBytes }

// Chunks returns how many chunks the heap has grown by — the paper's
// "scattered but virtually continuative" regions.
func (h *Heap) Chunks() int { return h.nchunks }

// ResidentPages returns how many pages hold storage;
// ResidentPages()*PageSize bytes is what the heap costs the host.
func (h *Heap) ResidentPages() int {
	n := 0
	for _, pg := range h.pages {
		if pg != nil {
			n++
		}
	}
	return n
}

// setChunks sets the virtual extent. Growing allocates nothing, not
// even page-table entries: those come with the first write to a page.
func (h *Heap) setChunks(n int) { h.nchunks = n }

// page returns page pi's storage, nil for a page nobody wrote.
func (h *Heap) page(pi int) *page {
	if pi < len(h.pages) {
		return h.pages[pi]
	}
	return nil
}

// cover grows the page table to hold an entry for every page of
// [0, end); the new entries are nil.
func (h *Heap) cover(end int64) {
	if np := int((end + pageMask) >> pageShift); np > len(h.pages) {
		h.pages = append(h.pages, make([]*page, np-len(h.pages))...)
	}
}

// grow extends the virtual space by one chunk and extends (or creates)
// the trailing free block. It fails if the heap is at its maximum.
func (h *Heap) grow() error {
	if h.Size()+h.chunkSize > h.maxSize {
		return ErrOutOfMemory
	}
	start := h.Size()
	h.setChunks(h.nchunks + 1)
	if n := len(h.blocks); n > 0 && h.blocks[n-1].free {
		h.blocks[n-1].size += h.chunkSize
		return nil
	}
	h.blocks = append(h.blocks, block{off: start, size: h.chunkSize, free: true})
	return nil
}

// Alloc reserves size bytes and returns the virtual offset of the
// allocation. The result is always allocAlign-aligned. A zero or negative
// size is an error.
func (h *Heap) Alloc(size int) (int64, error) {
	return h.AllocAligned(size, allocAlign)
}

// AllocAligned reserves size bytes at an offset that is a multiple of
// align (shmem_align). align must be a power of two; alignments below
// the heap's base alignment are rounded up to it.
func (h *Heap) AllocAligned(size, align int) (int64, error) {
	if size <= 0 {
		return 0, fmt.Errorf("mem: invalid allocation size %d", size)
	}
	if align <= 0 || align&(align-1) != 0 {
		return 0, fmt.Errorf("mem: alignment %d is not a power of two", align)
	}
	if align < allocAlign {
		align = allocAlign
	}
	a := int64(align)
	need := (int64(size) + allocAlign - 1) &^ (allocAlign - 1)
	for {
		// First fit over the free list, as the paper allocates
		// "in order from the start address of the symmetric heap".
		for i := range h.blocks {
			b := &h.blocks[i]
			if !b.free {
				continue
			}
			// Leading pad to reach alignment within this block.
			pad := (a - b.off%a) % a
			if b.size < pad+need {
				continue
			}
			if pad > 0 {
				// Split the pad off as a free block and retry on the
				// aligned remainder (now at index i+1).
				rest := block{off: b.off + pad, size: b.size - pad, free: true}
				b.size = pad
				h.blocks = append(h.blocks, block{})
				copy(h.blocks[i+2:], h.blocks[i+1:])
				h.blocks[i+1] = rest
			}
			blk := &h.blocks[i]
			if pad > 0 {
				blk = &h.blocks[i+1]
			}
			if blk.size > need {
				rest := block{off: blk.off + need, size: blk.size - need, free: true}
				blk.size = need
				idx := i
				if pad > 0 {
					idx = i + 1
				}
				h.blocks = append(h.blocks, block{})
				copy(h.blocks[idx+2:], h.blocks[idx+1:])
				h.blocks[idx+1] = rest
				blk = &h.blocks[idx]
			}
			blk.free = false
			h.live++
			h.liveBytes += need
			return blk.off, nil
		}
		if err := h.grow(); err != nil {
			return 0, err
		}
	}
}

// Realloc resizes the allocation at off to newSize, preserving the
// prefix contents, and returns the (possibly moved) base offset. It
// mirrors shmem_realloc: grow-in-place when the next block is free and
// large enough, otherwise allocate-copy-free.
func (h *Heap) Realloc(off int64, newSize int) (int64, error) {
	if newSize <= 0 {
		return 0, fmt.Errorf("mem: invalid reallocation size %d", newSize)
	}
	base, size, ok := h.BlockOf(off)
	if !ok || base != off {
		return 0, fmt.Errorf("%w: realloc of offset %d", ErrBadFree, off)
	}
	need := (int64(newSize) + allocAlign - 1) &^ (allocAlign - 1)
	if need <= size {
		// Shrink (or same): split the tail off as a free block.
		for i := range h.blocks {
			b := &h.blocks[i]
			if b.off != off {
				continue
			}
			if rest := b.size - need; rest > 0 {
				b.size = need
				h.liveBytes -= rest
				tail := block{off: b.off + need, size: rest, free: true}
				h.blocks = append(h.blocks, block{})
				copy(h.blocks[i+2:], h.blocks[i+1:])
				h.blocks[i+1] = tail
				// Coalesce the tail with a following free block.
				if i+2 < len(h.blocks) && h.blocks[i+2].free {
					h.blocks[i+1].size += h.blocks[i+2].size
					h.blocks = append(h.blocks[:i+2], h.blocks[i+3:]...)
				}
			}
			return off, nil
		}
	}
	// Grow in place when the next block is free and large enough.
	for i := range h.blocks {
		b := &h.blocks[i]
		if b.off != off {
			continue
		}
		if i+1 < len(h.blocks) && h.blocks[i+1].free && b.size+h.blocks[i+1].size >= need {
			extra := need - b.size
			h.blocks[i+1].off += extra
			h.blocks[i+1].size -= extra
			b.size = need
			h.liveBytes += extra
			if h.blocks[i+1].size == 0 {
				h.blocks = append(h.blocks[:i+1], h.blocks[i+2:]...)
			}
			return off, nil
		}
		break
	}
	// Move: allocate, copy the prefix, free the original.
	newOff, err := h.Alloc(newSize)
	if err != nil {
		return 0, err
	}
	keep := size
	if int64(newSize) < keep {
		keep = int64(newSize)
	}
	buf := make([]byte, keep)
	h.Read(off, buf)
	h.Write(newOff, buf)
	if err := h.Free(off); err != nil {
		return 0, err
	}
	return newOff, nil
}

// Free releases the allocation whose base offset is off, coalescing with
// free neighbours.
func (h *Heap) Free(off int64) error {
	for i := range h.blocks {
		b := &h.blocks[i]
		if b.off != off || b.free {
			continue
		}
		b.free = true
		h.live--
		h.liveBytes -= b.size
		// Coalesce with the next block, then the previous.
		if i+1 < len(h.blocks) && h.blocks[i+1].free {
			b.size += h.blocks[i+1].size
			h.blocks = append(h.blocks[:i+1], h.blocks[i+2:]...)
		}
		if i > 0 && h.blocks[i-1].free {
			h.blocks[i-1].size += h.blocks[i].size
			h.blocks = append(h.blocks[:i], h.blocks[i+1:]...)
		}
		return nil
	}
	return fmt.Errorf("%w: offset %d", ErrBadFree, off)
}

// checkRange panics when [off, off+n) lies outside the grown heap; callers
// of Read/Write/Zero must stay within allocations they own, and an
// out-of-range access is a library bug, not user input.
func (h *Heap) checkRange(off int64, n int) {
	if off < 0 || n < 0 || off+int64(n) > h.Size() {
		panic(fmt.Sprintf("mem: access [%d, %d) outside heap of size %d", off, off+int64(n), h.Size()))
	}
}

// Write copies data into the heap at virtual offset off, giving storage
// from the block lender to the pages it overlaps that have none. A slice
// of the zero source (IsZeroSource) is a Zero instead: pages without
// storage keep none.
func (h *Heap) Write(off int64, data []byte) {
	if IsZeroSource(data) {
		h.Zero(off, len(data))
		return
	}
	h.checkRange(off, len(data))
	h.cover(off + int64(len(data)))
	for len(data) > 0 {
		pi, po := int(off>>pageShift), int(off&pageMask)
		pg := h.pages[pi]
		if pg == nil {
			pg = borrowPage()
			h.pages[pi] = pg
		}
		n := copy(pg[po:], data)
		data = data[n:]
		off += int64(n)
	}
	if off > h.written {
		h.written = off
	}
}

// borrowPage returns an all-zero page from the block lender.
func borrowPage() *page { return (*page)(Borrow(pageSize, pageSize)) }

// Read copies len(buf) bytes from virtual offset off into buf.
func (h *Heap) Read(off int64, buf []byte) {
	h.checkRange(off, len(buf))
	for len(buf) > 0 {
		pi, po := int(off>>pageShift), int(off&pageMask)
		n := min(len(buf), pageSize-po)
		if pg := h.page(pi); pg != nil {
			copy(buf[:n], pg[po:])
		} else {
			clear(buf[:n])
		}
		buf = buf[n:]
		off += int64(n)
	}
}

// ZeroRange reports whether [off, off+n) is known to read as zeros from
// the page table alone: every page it overlaps is without storage, or
// the range lies at or beyond the written mark. It reads no byte, so a
// range that holds storage but happens to be zero reports false.
func (h *Heap) ZeroRange(off int64, n int) bool {
	h.checkRange(off, n)
	if n == 0 || off >= h.written {
		return true
	}
	for pi := int(off >> pageShift); pi <= int((off+int64(n)-1)>>pageShift); pi++ {
		if h.page(pi) != nil {
			return false
		}
	}
	return true
}

// Zero clears [off, off+n). A page without storage already reads as zeros
// and stays that way.
func (h *Heap) Zero(off int64, n int) {
	h.checkRange(off, n)
	for n > 0 {
		pi, po := int(off>>pageShift), int(off&pageMask)
		run := min(n, pageSize-po)
		if pg := h.page(pi); pg != nil {
			clear(pg[po : po+run])
		}
		n -= run
		off += int64(run)
	}
}

// Reset drops every allocation and gives the heap's pages back to the
// block lender, returning it to a state indistinguishable from freshly
// constructed: Fork onto the zero snapshot, which is power-on. Because
// grow costs nothing in virtual time and first-fit over a single leading
// free block assigns the same offsets a demand-grown fresh heap would,
// an allocation sequence replayed after Reset yields byte-identical
// placement — the property recycled simulation worlds rely on.
func (h *Heap) Reset() { h.Fork(&powerOn) }

// BlockOf returns the base offset and size of the live allocation
// containing off, for bounds validation by the runtime.
func (h *Heap) BlockOf(off int64) (base, size int64, ok bool) {
	for i := range h.blocks {
		b := &h.blocks[i]
		if !b.free && off >= b.off && off < b.off+b.size {
			return b.off, b.size, true
		}
	}
	return 0, 0, false
}

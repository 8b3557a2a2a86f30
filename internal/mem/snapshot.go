package mem

import (
	"fmt"
	"sync/atomic"
)

// Copy-on-write heap snapshots. A snapshot freezes the heap's allocator
// state and its page table over the written extent; the heap itself and
// any number of forked heaps then share those frozen pages, and Write
// and Zero privatize a shared page — one copy of at most pageSize bytes —
// the first time they touch it. Capturing a snapshot therefore costs
// O(pages) pointer copies, not O(bytes), and a forked sweep point pays
// copy cost only for the pages its divergent future actually touches.
//
// Invariant: a frozen page is immutable forever. Writers privatize
// before touching it, and Fork (Reset included) swaps a shared page's
// pointer out — for the next snapshot's page or for nil — instead of
// clearing it, so a snapshot's contents survive any number of fork
// cycles of the heaps referencing it.

// cowCopies counts page privatizations (copy-on-write page copies)
// across every heap in the process, for the fork-stats report.
var cowCopies atomic.Uint64

// CowCopies reports how many copy-on-write page copies heaps have
// performed process-wide since start, in pageSize pages. A page that goes
// from no storage to private is not a copy and is not counted.
func CowCopies() uint64 { return cowCopies.Load() }

// HeapSnapshot is a frozen image of a heap: the allocator's block list
// and counters plus the page table over the written extent at capture
// time, its pages shared read-only (nil where nothing was written). It is
// immutable and safe to fork from concurrently (forks of one snapshot
// only ever read it).
type HeapSnapshot struct {
	heapState
	chunkSize int64
	size      int64   // virtual extent at capture
	frozen    []*page // page table over [0, written)
	blocks    []block
}

// Written reports the snapshot's written high-water mark, for tests.
func (s *HeapSnapshot) Written() int64 { return s.written }

// writtenPages is the number of page-table entries overlapping
// [0, written).
func writtenPages(written int64) int { return int((written + pageMask) >> pageShift) }

// Snapshot captures the heap's current state. The heap's own pages in
// the written extent become shared (privatized again on the next write),
// so the capture itself copies no data; snapshotting a heap that is
// already sharing pages with an older snapshot re-shares those same
// pages.
func (h *Heap) Snapshot() *HeapSnapshot {
	s := &HeapSnapshot{
		heapState: h.heapState,
		chunkSize: h.chunkSize,
		size:      h.Size(),
		blocks:    append([]block(nil), h.blocks...),
	}
	if n := writtenPages(h.written); n > 0 {
		s.frozen = make([]*page, n)
		for pi := range s.frozen {
			pg := &h.pages[pi]
			s.frozen[pi] = pg.data
			pg.shared = pg.data != nil
		}
	}
	return s
}

// Fork brings the heap, whatever it holds, to the snapshot's state: the
// previous run's allocations are dropped, allocator metadata is
// restored, and the page table becomes the snapshot's — its frozen pages
// aliased, not copied, and nil everywhere else. The pages the previous
// run held go back to the block lender first (ReturnStorage), so a heap
// a pooled world already emptied at check-in has nothing to drop. The
// heap must have the snapshot's geometry.
func (h *Heap) Fork(s *HeapSnapshot) {
	if h.chunkSize != s.chunkSize {
		panic(fmt.Sprintf("mem: fork of a chunk-size-%d heap from a chunk-size-%d snapshot", h.chunkSize, s.chunkSize))
	}
	if s.size > h.maxSize {
		panic(fmt.Sprintf("mem: fork of a max-%d heap from a %d-byte snapshot", h.maxSize, s.size))
	}
	h.ReturnStorage()
	if h.Size() < s.size {
		h.setChunks(int(s.size / s.chunkSize))
	}
	for pi, data := range s.frozen {
		if data != nil {
			h.pages[pi] = pageRef{data: data, shared: true}
		}
	}
	h.blocks = append(h.blocks[:0], s.blocks...)
	// A pre-grown heap larger than the snapshot keeps its tail as free
	// space, exactly as a demand-grown continuation would produce it.
	if extra := h.Size() - s.size; extra > 0 {
		if n := len(h.blocks); n > 0 && h.blocks[n-1].free {
			h.blocks[n-1].size += extra
		} else {
			h.blocks = append(h.blocks, block{off: s.size, size: extra, free: true})
		}
	}
	h.heapState = s.heapState
}

// ReturnStorage gives every private page back to the block lender,
// re-zeroed below the written mark, and drops the references to pages a
// snapshot shares (frozen pages are never given back). Allocations stay;
// their contents read as zeros. It is the first half of Fork and Reset,
// which a pooled world runs early, at check-in, so that an idle world
// parks no pages.
func (h *Heap) ReturnStorage() {
	// Storage exists only below the written mark.
	for pi := range writtenPages(h.written) {
		pg := &h.pages[pi]
		if pg.data != nil && !pg.shared {
			clear(pg.data[:min(pageSize, h.written-int64(pi)<<pageShift)])
			Return(pg.data[:])
		}
		*pg = pageRef{}
	}
	h.written = 0
}

// privatize gives page pi private storage ahead of a write and returns
// it: an all-zero page from the block lender, into which a shared page
// is copied — the copy-on-write fault path — but only its slice of
// [0, written): a frozen page is zero beyond the written mark it was
// captured under, which the heap's own mark never falls below.
func (h *Heap) privatize(pi int) *page {
	priv := (*page)(Borrow(pageSize, pageSize))
	pg := &h.pages[pi]
	if pg.shared {
		if n := h.written - int64(pi)<<pageShift; n > 0 {
			copy(priv[:min(pageSize, n)], pg.data[:])
		}
		cowCopies.Add(1)
	}
	*pg = pageRef{data: priv}
	return priv
}

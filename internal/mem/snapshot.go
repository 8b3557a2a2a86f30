package mem

import (
	"bytes"
	"fmt"
)

// Heap snapshots copy at capture, as ntb.PortSnapshot does for window
// bytes. A snapshot holds the heap's allocator state and its own copy of
// every page below the written mark that has storage; Fork copies those
// bytes into pages borrowed from the block lender. A heap, its
// snapshots and their forks therefore share no storage, and a write to
// any of them reaches none of the others. A heap nobody wrote — what a
// figure sweep's prefix snapshots capture after shmem_init — snapshots
// and forks without copying a byte.

// HeapSnapshot is an immutable image of a heap: the allocator's block
// list and counters plus copies of the pages over the written extent at
// capture time (nil where nothing was written). Forks only read it, so
// any number may fork from it concurrently. The zero HeapSnapshot is
// power-on: an empty heap of any geometry.
type HeapSnapshot struct {
	heapState
	chunkSize int64
	size      int64    // virtual extent at capture
	pages     [][]byte // page contents over [0, written), cut at the mark; nil without storage
	blocks    []block
}

// Written reports the snapshot's written high-water mark, for tests.
func (s *HeapSnapshot) Written() int64 { return s.written }

// Pages reports how many pages the snapshot holds a copy of.
func (s *HeapSnapshot) Pages() int {
	n := 0
	for _, data := range s.pages {
		if data != nil {
			n++
		}
	}
	return n
}

// powerOn is the zero image Reset forks onto.
var powerOn HeapSnapshot

// writtenPages is the number of page-table entries overlapping
// [0, written).
func writtenPages(written int64) int { return int((written + pageMask) >> pageShift) }

// writtenOn is how many leading bytes of page pi lie below the written
// mark: the only bytes of it that may be non-zero.
func (st *heapState) writtenOn(pi int) int64 {
	return min(pageSize, st.written-int64(pi)<<pageShift)
}

// Snapshot captures the heap's current state, copying each page that
// holds storage up to the written mark. The heap itself is unchanged.
func (h *Heap) Snapshot() *HeapSnapshot {
	s := &HeapSnapshot{
		heapState: h.heapState,
		chunkSize: h.chunkSize,
		size:      h.Size(),
		blocks:    append([]block(nil), h.blocks...),
	}
	if n := min(writtenPages(h.written), len(h.pages)); n > 0 {
		s.pages = make([][]byte, n)
		for pi, pg := range h.pages[:n] {
			if pg != nil {
				s.pages[pi] = bytes.Clone(pg[:h.writtenOn(pi)])
			}
		}
	}
	return s
}

// Fork brings the heap, whatever it holds, to the snapshot's state: the
// previous run's allocations are dropped, allocator metadata is
// restored, and every page the snapshot holds is copied into a page
// borrowed from the block lender; the rest have no storage. The pages
// the previous run held go back to the lender first (ReturnStorage), so
// a heap a pooled world already emptied at check-in has nothing to drop.
// The heap must have the snapshot's geometry; a nil or zero snapshot is
// power-on, an empty heap of any geometry.
func (h *Heap) Fork(s *HeapSnapshot) {
	if s == nil {
		s = &powerOn
	}
	if s.chunkSize != 0 && h.chunkSize != s.chunkSize {
		panic(fmt.Sprintf("mem: fork of a chunk-size-%d heap from a chunk-size-%d snapshot", h.chunkSize, s.chunkSize))
	}
	if s.size > h.maxSize {
		panic(fmt.Sprintf("mem: fork of a max-%d heap from a %d-byte snapshot", h.maxSize, s.size))
	}
	h.ReturnStorage()
	if h.Size() < s.size {
		h.setChunks(int(s.size / s.chunkSize))
	}
	h.cover(int64(len(s.pages)) << pageShift)
	for pi, data := range s.pages {
		if data != nil {
			pg := borrowPage()
			copy(pg[:], data)
			h.pages[pi] = pg
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

// ReturnStorage gives every page back to the block lender, re-zeroed
// below the written mark. Allocations stay; their contents read as
// zeros. It is the first half of Fork and Reset, which a pooled world
// runs early, at check-in, so that an idle world parks no pages.
func (h *Heap) ReturnStorage() {
	// Storage exists only below the written mark.
	for pi, pg := range h.pages[:min(writtenPages(h.written), len(h.pages))] {
		if pg != nil {
			clear(pg[:h.writtenOn(pi)])
			Return(pg[:])
			h.pages[pi] = nil
		}
	}
	h.written = 0
}

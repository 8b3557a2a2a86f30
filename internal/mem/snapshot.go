package mem

import (
	"fmt"
	"sync/atomic"
)

// Copy-on-write heap snapshots. A snapshot freezes the heap's allocator
// state and takes ownership of every chunk overlapping the written
// extent; the heap itself and any number of forked heaps then share
// those frozen pages, and the mutating access paths (Write, Segments)
// privatize a shared chunk — one chunk-sized copy — the first time it
// is written. Capturing a snapshot therefore costs O(chunks) flag
// updates, not O(bytes), and a forked sweep point pays copy cost only
// for the pages its divergent future actually touches.
//
// Invariant: a frozen page is immutable forever. Writers privatize
// before touching it, and Fork (Reset included) detaches shared chunks
// — swapping in the next snapshot's page or a zero page from the spare
// pool — instead of clearing them, so a snapshot's contents survive any
// number of fork cycles of the heaps referencing it.

// cowCopies counts chunk privatizations (copy-on-write page copies)
// across every heap in the process, for the fork-stats report.
var cowCopies atomic.Uint64

// CowCopies reports how many chunk-sized copy-on-write copies heaps have
// performed process-wide since start.
func CowCopies() uint64 { return cowCopies.Load() }

// HeapSnapshot is a frozen image of a heap: the allocator's block list
// and counters plus read-only pages for every chunk that overlapped the
// written extent at capture time. It is immutable and safe to fork from
// concurrently (forks of one snapshot only ever read it).
type HeapSnapshot struct {
	chunkSize int64
	size      int64    // virtual extent at capture
	frozen    [][]byte // chunks overlapping [0, written), shared read-only
	blocks    []block
	live      int
	liveBytes int64
	written   int64
}

// Written reports the snapshot's written high-water mark, for tests.
func (s *HeapSnapshot) Written() int64 { return s.written }

// Snapshot captures the heap's current state. The heap's own chunks in
// the written extent become shared pages (privatized again on the next
// write), so the capture itself copies no data; snapshotting a heap that
// is already sharing pages with an older snapshot re-shares those same
// pages.
func (h *Heap) Snapshot() *HeapSnapshot {
	s := &HeapSnapshot{
		chunkSize: h.chunkSize,
		size:      h.Size(),
		blocks:    append([]block(nil), h.blocks...),
		live:      h.live,
		liveBytes: h.liveBytes,
		written:   h.written,
	}
	n := int((h.written + h.chunkSize - 1) / h.chunkSize)
	if n == 0 {
		return s
	}
	if h.shared == nil {
		h.shared = make([]bool, len(h.chunks))
	}
	s.frozen = make([][]byte, n)
	for ci := 0; ci < n; ci++ {
		s.frozen[ci] = h.chunks[ci]
		h.shared[ci] = true
	}
	return s
}

// Fork brings the heap, whatever it holds, to the snapshot's state: the
// previous run's allocations are dropped and its written extent rezeroed
// (private chunks cleared, chunks shared with an older snapshot
// detached), allocator metadata is restored, and the snapshot's frozen
// pages are aliased rather than copied. Private chunks the frozen pages
// displace park, all-zero, in the spare pool, ready to back later
// privatizations without allocating. The heap must have the snapshot's
// geometry.
func (h *Heap) Fork(s *HeapSnapshot) {
	if h.chunkSize != s.chunkSize {
		panic(fmt.Sprintf("mem: fork of a chunk-size-%d heap from a chunk-size-%d snapshot", h.chunkSize, s.chunkSize))
	}
	if s.size > h.maxSize {
		panic(fmt.Sprintf("mem: fork of a max-%d heap from a %d-byte snapshot", h.maxSize, s.size))
	}
	for h.Size() < s.size {
		h.chunks = append(h.chunks, h.takeSpare())
		if h.shared != nil {
			h.shared = append(h.shared, false)
		}
	}
	if h.shared == nil && len(s.frozen) > 0 {
		h.shared = make([]bool, len(h.chunks))
	}
	// One pass over every chunk the previous run may have written (all
	// shared chunks lie inside that extent) or the snapshot freezes.
	dirty := int((h.written + h.chunkSize - 1) / h.chunkSize)
	for ci := 0; ci < dirty || ci < len(s.frozen); ci++ {
		wasShared := h.shared != nil && h.shared[ci]
		if !wasShared && ci < dirty {
			n := h.written - int64(ci)*h.chunkSize
			if n > h.chunkSize {
				n = h.chunkSize
			}
			clear(h.chunks[ci][:n])
		}
		switch {
		case ci < len(s.frozen):
			if !wasShared {
				h.spare = append(h.spare, h.chunks[ci])
			}
			h.chunks[ci] = s.frozen[ci]
			h.shared[ci] = true
		case wasShared:
			// Detach rather than clear: the page belongs to a snapshot
			// other heaps may still fork from.
			h.chunks[ci] = h.takeSpare()
			h.shared[ci] = false
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
	h.live = s.live
	h.liveBytes = s.liveBytes
	h.written = s.written
}

// ensurePrivate privatizes every shared chunk overlapping [off, off+n)
// ahead of a write. Heaps that never met a snapshot skip it on a nil
// check.
func (h *Heap) ensurePrivate(off int64, n int) {
	if h.shared == nil || n <= 0 {
		return
	}
	last := (off + int64(n) - 1) / h.chunkSize
	for ci := off / h.chunkSize; ci <= last; ci++ {
		if int(ci) < len(h.shared) && h.shared[ci] {
			h.privatize(int(ci))
		}
	}
}

// privatize replaces the shared chunk ci with a private copy — the
// copy-on-write fault path. Only the chunk's slice of [0, written) is
// copied: a frozen page is zero beyond the written watermark it was
// captured under (writers privatize before raising it), and spare pages
// are all-zero already, so the tail needs no copy.
func (h *Heap) privatize(ci int) {
	priv := h.takeSpare()
	n := h.written - int64(ci)*h.chunkSize
	if n > h.chunkSize {
		n = h.chunkSize
	}
	if n > 0 {
		copy(priv[:n], h.chunks[ci][:n])
	}
	h.chunks[ci] = priv
	h.shared[ci] = false
	cowCopies.Add(1)
}

// takeSpare pops a zero chunk from the spare pool or allocates one.
// Every chunk entering the pool is all-zero (Fork rezeroes a private
// chunk's written slice before displacing it), so callers needing zero
// pages (Fork's detach) and callers overwriting the whole chunk
// (privatize) both use it directly.
func (h *Heap) takeSpare() []byte {
	if last := len(h.spare) - 1; last >= 0 {
		c := h.spare[last]
		h.spare[last] = nil
		h.spare = h.spare[:last]
		return c
	}
	return make([]byte, h.chunkSize)
}

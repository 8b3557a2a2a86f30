package core

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
)

// Malloc allocates size bytes in the symmetric heap (shmem_malloc,
// Table I). Under SPMD execution every PE performs the same allocation
// sequence, so the returned SymAddr designates the same object everywhere
// — the paper's same-offset guarantee of Fig 3.
func (pe *PE) Malloc(p *sim.Proc, size int) (SymAddr, error) {
	pe.checkLive()
	p.Sleep(pe.par.PutSoftware) // allocator bookkeeping cost
	off, err := pe.heap.Alloc(size)
	if err != nil {
		return 0, fmt.Errorf("pe %d: %w", pe.id, err)
	}
	return SymAddr(off), nil
}

// MallocAligned is shmem_align: allocate size bytes whose symmetric
// address is a multiple of align (a power of two).
func (pe *PE) MallocAligned(p *sim.Proc, size, align int) (SymAddr, error) {
	pe.checkLive()
	p.Sleep(pe.par.PutSoftware)
	off, err := pe.heap.AllocAligned(size, align)
	if err != nil {
		return 0, fmt.Errorf("pe %d: %w", pe.id, err)
	}
	return SymAddr(off), nil
}

// MustMalloc is Malloc for callers that treat exhaustion as fatal, which
// is what shmem_malloc's NULL return means to most SPMD programs.
func (pe *PE) MustMalloc(p *sim.Proc, size int) SymAddr {
	a, err := pe.Malloc(p, size)
	if err != nil {
		panic(err)
	}
	return a
}

// Calloc allocates and zeroes (never-written heap pages already read as
// zeros, but reused regions do not).
func (pe *PE) Calloc(p *sim.Proc, size int) (SymAddr, error) {
	a, err := pe.Malloc(p, size)
	if err != nil {
		return 0, err
	}
	p.Sleep(sim.BytesAt(size, pe.par.MemcpyBW))
	pe.heap.Zero(int64(a), size)
	return a, nil
}

// Realloc resizes a symmetric allocation (shmem_realloc), preserving
// the prefix contents; the result may be a new address. SPMD symmetry
// holds as long as every PE performs the same call sequence.
func (pe *PE) Realloc(p *sim.Proc, addr SymAddr, newSize int) (SymAddr, error) {
	pe.checkLive()
	p.Sleep(pe.par.PutSoftware)
	base, old, ok := pe.heap.BlockOf(int64(addr))
	if ok && base == int64(addr) {
		// A move costs a local copy of the preserved prefix.
		keep := old
		if int64(newSize) < keep {
			keep = int64(newSize)
		}
		p.Sleep(sim.BytesAt(int(keep), pe.par.MemcpyBW))
	}
	off, err := pe.heap.Realloc(int64(addr), newSize)
	if err != nil {
		return 0, fmt.Errorf("pe %d: %w", pe.id, err)
	}
	return SymAddr(off), nil
}

// Free releases a symmetric allocation (shmem_free).
func (pe *PE) Free(p *sim.Proc, addr SymAddr) error {
	pe.checkLive()
	p.Sleep(pe.par.PutSoftware)
	return pe.heap.Free(int64(addr))
}

// HeapStats describes a PE's symmetric heap for inspection and tests:
// what is allocated, how far the virtual space has grown, and how much
// of it holds storage on the host.
type HeapStats struct {
	Live          int   // live allocations
	LiveBytes     int64 // bytes in live allocations
	Chunks        int   // SymHeapChunk-sized growth steps taken
	ResidentPages int   // pages backed by storage (written at least once)
	ResidentBytes int64 // ResidentPages * mem.PageSize
}

// HeapStats reports the symmetric heap's current shape.
func (pe *PE) HeapStats() HeapStats {
	pages := pe.heap.ResidentPages()
	return HeapStats{
		Live: pe.heap.Live(), LiveBytes: pe.heap.LiveBytes(), Chunks: pe.heap.Chunks(),
		ResidentPages: pages, ResidentBytes: int64(pages) * mem.PageSize,
	}
}

// checkHeapRange panics unless [addr, addr+n) lies inside one live
// symmetric allocation. Remote accesses to unallocated symmetric memory
// are undefined behaviour in OpenSHMEM; here they fail loudly.
func (pe *PE) checkHeapRange(addr SymAddr, n int) {
	base, size, ok := pe.heap.BlockOf(int64(addr))
	if !ok || int64(addr)+int64(n) > base+size {
		panic(fmt.Sprintf("core: pe %d symmetric access [%d,%d) outside any live allocation",
			pe.id, addr, int64(addr)+int64(n)))
	}
}

// localCopy checks a local access to [addr, addr+n) of this PE's own
// symmetric memory and charges its one memcpy.
func (pe *PE) localCopy(p *sim.Proc, addr SymAddr, n int) {
	pe.checkLive()
	pe.checkHeapRange(addr, n)
	p.Sleep(sim.BytesAt(n, pe.par.MemcpyBW))
}

// LocalWrite stores bytes into this PE's own copy of a symmetric object,
// at local-memcpy cost. It is how applications initialise symmetric data.
func (pe *PE) LocalWrite(p *sim.Proc, addr SymAddr, src []byte) {
	pe.localCopy(p, addr, len(src))
	pe.heap.Write(int64(addr), mem.ZeroOr(src))
	pe.heapWrite.Broadcast()
}

// LocalRead loads bytes from this PE's own copy of a symmetric object.
func (pe *PE) LocalRead(p *sim.Proc, addr SymAddr, dst []byte) {
	pe.localCopy(p, addr, len(dst))
	pe.heap.Read(int64(addr), dst)
}

// readSource is LocalRead for a put source: it reads [addr, addr+n) into
// *buf, growing it if short — except that a range nobody wrote comes
// back as the shared zero source (mem.Zeros), read and staged nowhere.
func (pe *PE) readSource(p *sim.Proc, addr SymAddr, n int, buf *[]byte) []byte {
	pe.localCopy(p, addr, n)
	if pe.heap.ZeroRange(int64(addr), n) {
		return mem.Zeros(n)
	}
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	src := (*buf)[:n]
	pe.heap.Read(int64(addr), src)
	return src
}

// peekInt64 reads a local symmetric int64 without timing charge; it is
// the runtime's own register-sized inspection primitive (WaitUntil,
// AMO application).
func (pe *PE) peekInt64(addr SymAddr) int64 {
	var b [8]byte
	pe.heap.Read(int64(addr), b[:])
	return int64(native.Uint64(b[:]))
}

// pokeInt64 writes a local symmetric int64 without timing charge.
func (pe *PE) pokeInt64(addr SymAddr, v int64) {
	var b [8]byte
	native.PutUint64(b[:], uint64(v))
	pe.heap.Write(int64(addr), b[:])
}

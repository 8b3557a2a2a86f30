package mem

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
)

// The paged heap against a reference that shares none of its mechanisms:
// a flat byte array for contents and a sorted list of live blocks, placed
// by first fit over the gaps between them. A program is a byte string
// (decoded by progReader), so the seeded test and the native fuzz target
// drive the same interpreter.

// refBlock is one live allocation of the reference.
type refBlock struct{ off, size int64 }

// refHeap is the reference model of one Heap.
type refHeap struct {
	chunk, max, size int64
	data             []byte // max bytes; everything not written is zero
	blocks           []refBlock
}

func newRefHeap(chunk, max int) *refHeap {
	return &refHeap{chunk: int64(chunk), max: int64(max), data: make([]byte, max)}
}

func round8(n int) int64 { return (int64(n) + 7) &^ 7 }

// place finds the first gap that fits need bytes at alignment a, growing
// the extent a chunk at a time like the heap does.
func (r *refHeap) place(need, a int64) (int64, bool) {
	for {
		at := int64(0)
		for i := 0; i <= len(r.blocks); i++ {
			end := r.size
			if i < len(r.blocks) {
				end = r.blocks[i].off
			}
			if start := (at + a - 1) / a * a; start+need <= end {
				return start, true
			}
			if i < len(r.blocks) {
				at = r.blocks[i].off + r.blocks[i].size
			}
		}
		if r.size+r.chunk > r.max {
			return 0, false
		}
		r.size += r.chunk
	}
}

func (r *refHeap) alloc(size, align int) (int64, bool) {
	off, ok := r.place(round8(size), int64(max(align, allocAlign)))
	if !ok {
		return 0, false
	}
	r.blocks = append(r.blocks, refBlock{off, round8(size)})
	sort.Slice(r.blocks, func(i, j int) bool { return r.blocks[i].off < r.blocks[j].off })
	return off, true
}

func (r *refHeap) index(off int64) int {
	for i, b := range r.blocks {
		if b.off == off {
			return i
		}
	}
	return -1
}

func (r *refHeap) free(off int64) {
	i := r.index(off)
	r.blocks = append(r.blocks[:i], r.blocks[i+1:]...)
}

// realloc mirrors shmem_realloc: shrink in place, grow into the gap that
// follows, or allocate-copy-free.
func (r *refHeap) realloc(off int64, newSize int) (int64, bool) {
	i := r.index(off)
	b := &r.blocks[i]
	need := round8(newSize)
	gapEnd := r.size
	if i+1 < len(r.blocks) {
		gapEnd = r.blocks[i+1].off
	}
	if need <= b.size || off+need <= gapEnd {
		b.size = need
		return off, true
	}
	keep := min(b.size, int64(newSize))
	to, ok := r.alloc(newSize, allocAlign)
	if !ok {
		return 0, false
	}
	copy(r.data[to:to+keep], r.data[off:off+keep])
	r.free(off)
	return to, true
}

// refImage is the reference's snapshot: a deep copy.
type refImage struct {
	size   int64
	data   []byte
	blocks []refBlock
}

func (r *refHeap) snapshot() *refImage {
	return &refImage{size: r.size, data: bytes.Clone(r.data), blocks: append([]refBlock(nil), r.blocks...)}
}

func (r *refHeap) fork(s *refImage) {
	r.size = max(r.size, s.size)
	copy(r.data, s.data)
	r.blocks = append(r.blocks[:0], s.blocks...)
}

// progReader decodes a program; an exhausted program reads as zeros.
type progReader struct{ b []byte }

func (p *progReader) done() bool { return len(p.b) == 0 }

func (p *progReader) byte() int {
	if len(p.b) == 0 {
		return 0
	}
	v := p.b[0]
	p.b = p.b[1:]
	return int(v)
}

func (p *progReader) u24() int { return p.byte()<<16 | p.byte()<<8 | p.byte() }

// size draws an allocation or access length from three classes, so
// programs mix register-sized accesses with ones that straddle several
// pages.
func (p *progReader) size() int {
	switch v := p.u24(); p.byte() % 4 {
	case 0:
		return 1 + v%64
	case 1:
		return 1 + v%8192
	default:
		return 1 + v%(3*pageSize)
	}
}

// pagedGeometries are the chunk sizes programs run under: below, at and
// above the page size, and not a multiple of it (or of eight).
var pagedGeometries = []int{4096, 5003, 40000, pageSize, 100000, 4 * pageSize}

const (
	pagedHeaps = 3
	pagedSnaps = 3
	pagedSpace = 12 * pageSize // per-heap maximum, rounded down to whole chunks
)

// pagedWorld is the state one program runs against: a few heaps, each
// beside its reference, and a few snapshot slots, each beside its image.
type pagedWorld struct {
	t      *testing.T
	chunk  int
	max    int
	heaps  [pagedHeaps]*Heap
	refs   [pagedHeaps]*refHeap
	snaps  [pagedSnaps]*HeapSnapshot
	images [pagedSnaps]*refImage
	fill   byte
}

func newPagedWorld(t *testing.T, geometry int) *pagedWorld {
	w := &pagedWorld{t: t, chunk: pagedGeometries[geometry%len(pagedGeometries)]}
	w.max = pagedSpace / w.chunk * w.chunk
	for i := range w.heaps {
		w.heaps[i] = NewHeap(w.chunk, w.max)
		w.refs[i] = newRefHeap(w.chunk, w.max)
	}
	return w
}

// span picks a block of heap i and a range inside it (or, one time in
// eight, running to its very end).
func (w *pagedWorld) span(p *progReader, i int) (off int64, n int, ok bool) {
	r := w.refs[i]
	if len(r.blocks) == 0 {
		return 0, 0, false
	}
	b := r.blocks[p.byte()%len(r.blocks)]
	at := int64(p.u24()) % b.size
	n = min(p.size(), int(b.size-at))
	if p.byte()%8 == 0 {
		at = b.size - int64(n)
	}
	return b.off + at, n, true
}

// step executes one op of the program.
func (w *pagedWorld) step(p *progReader) {
	t := w.t
	op, i := p.byte()%15, p.byte()%pagedHeaps
	h, r := w.heaps[i], w.refs[i]
	switch op {
	case 0, 1: // Alloc / AllocAligned
		size, align := p.size(), allocAlign
		var got int64
		var err error
		if op == 0 {
			got, err = h.Alloc(size)
		} else {
			align = 1 << (p.byte() % 18)
			got, err = h.AllocAligned(size, align)
		}
		want, ok := r.alloc(size, align)
		if (err == nil) != ok || (ok && got != want) {
			t.Fatalf("alloc(%d, align %d): heap %d (%v), reference %d (ok=%v)", size, align, got, err, want, ok)
		}
	case 2: // Realloc
		if len(r.blocks) == 0 {
			return
		}
		off, size := r.blocks[p.byte()%len(r.blocks)].off, p.size()
		got, err := h.Realloc(off, size)
		want, ok := r.realloc(off, size)
		if (err == nil) != ok || (ok && got != want) {
			t.Fatalf("realloc(%d, %d): heap %d (%v), reference %d (ok=%v)", off, size, got, err, want, ok)
		}
	case 3: // Free
		if len(r.blocks) == 0 {
			return
		}
		off := r.blocks[p.byte()%len(r.blocks)].off
		if err := h.Free(off); err != nil {
			t.Fatalf("free(%d): %v", off, err)
		}
		r.free(off)
	case 4, 5, 6: // Write
		off, n, ok := w.span(p, i)
		if !ok {
			return
		}
		buf := make([]byte, n)
		for k := range buf {
			w.fill = w.fill*31 + 7
			buf[k] = w.fill | 1 // never zero, so a lost write shows
		}
		h.Write(off, buf)
		copy(r.data[off:], buf)
	case 7: // Read
		off, n, ok := w.span(p, i)
		if !ok {
			return
		}
		buf := bytes.Repeat([]byte{0xA5}, n)
		h.Read(off, buf)
		if !bytes.Equal(buf, r.data[off:off+int64(n)]) {
			t.Fatalf("read [%d,%d) of heap %d differs from the reference", off, off+int64(n), i)
		}
	case 8: // Zero
		off, n, ok := w.span(p, i)
		if !ok {
			return
		}
		resident := h.ResidentPages()
		h.Zero(off, n)
		clear(r.data[off : off+int64(n)])
		if got := h.ResidentPages(); got != resident {
			t.Fatalf("Zero changed resident pages %d -> %d", resident, got)
		}
	case 9: // Snapshot
		k := p.byte() % pagedSnaps
		w.snaps[k], w.images[k] = h.Snapshot(), r.snapshot()
	case 10: // Fork
		if k := p.byte() % pagedSnaps; w.snaps[k] != nil {
			h.Fork(w.snaps[k])
			r.fork(w.images[k])
		}
	case 11: // Reset
		h.Reset()
		r.blocks = r.blocks[:0]
		clear(r.data)
	case 12: // Write of the zero source: a Zero, materialising nothing
		off, n, ok := w.span(p, i)
		if !ok {
			return
		}
		resident := h.ResidentPages()
		h.Write(off, Zeros(n))
		clear(r.data[off : off+int64(n)])
		if got := h.ResidentPages(); got != resident {
			t.Fatalf("zero-source Write changed resident pages %d -> %d", resident, got)
		}
	case 13: // ZeroRange never claims a range that holds a non-zero byte
		off, n, ok := w.span(p, i)
		if ok && h.ZeroRange(off, n) && !allZero(r.data[off:off+int64(n)]) {
			t.Fatalf("ZeroRange(%d, %d) of heap %d is true over non-zero bytes", off, n, i)
		}
	case 14: // ReturnStorage, as a pooled world's check-in runs it: the
		// allocations stay, their contents read as zeros, no page is held
		h.ReturnStorage()
		clear(r.data)
		if n := h.ResidentPages(); n != 0 {
			t.Fatalf("ReturnStorage left heap %d holding %d pages", i, n)
		}
	}
}

// check compares everything observable: every heap against its reference,
// and every snapshot — through a fresh heap forked from it — against the
// image taken with it, however much the heaps it came from or was forked
// into have written since.
func (w *pagedWorld) check() {
	t := w.t
	t.Helper()
	same := func(what string, h *Heap, size int64, data []byte, blocks []refBlock) {
		t.Helper()
		if h.Size() != size || h.Live() != len(blocks) {
			t.Fatalf("%s: size %d live %d, reference size %d live %d", what, h.Size(), h.Live(), size, len(blocks))
		}
		var liveBytes int64
		for _, b := range blocks {
			liveBytes += b.size
			if base, sz, ok := h.BlockOf(b.off + b.size - 1); !ok || base != b.off || sz != b.size {
				t.Fatalf("%s: BlockOf(%d) = %d,%d,%v, reference block %+v", what, b.off+b.size-1, base, sz, ok, b)
			}
		}
		if h.LiveBytes() != liveBytes {
			t.Fatalf("%s: live bytes %d, reference %d", what, h.LiveBytes(), liveBytes)
		}
		got := make([]byte, size)
		h.Read(0, got)
		if !bytes.Equal(got, data[:size]) {
			for k := range got {
				if got[k] != data[k] {
					t.Fatalf("%s: byte %d (page %d) is %#x, reference %#x", what, k, k>>pageShift, got[k], data[k])
				}
			}
		}
		if h.written > size || h.ResidentPages() > writtenPages(h.written) {
			t.Fatalf("%s: written %d of %d, %d resident pages", what, h.written, size, h.ResidentPages())
		}
	}
	for i, h := range w.heaps {
		same("heap", h, w.refs[i].size, w.refs[i].data, w.refs[i].blocks)
	}
	if !LenderClean() {
		t.Fatal("a page went back to the lender with a non-zero byte")
	}
	for k, s := range w.snaps {
		if s == nil {
			continue
		}
		fresh := NewHeap(w.chunk, w.max)
		fresh.Fork(s)
		same("snapshot", fresh, w.images[k].size, w.images[k].data, w.images[k].blocks)
	}
}

// runPagedProgram interprets prog; its first byte picks the geometry.
func runPagedProgram(t *testing.T, prog []byte, checkEvery int) {
	p := &progReader{b: prog}
	w := newPagedWorld(t, p.byte())
	for n := 1; !p.done(); n++ {
		w.step(p)
		if n%checkEvery == 0 {
			w.check()
		}
	}
	w.check()
}

func TestPagedHeapDifferential(t *testing.T) {
	programs, length := 24, 3000
	if testing.Short() {
		programs = 12
	}
	for seed := 0; seed < programs; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		prog := make([]byte, length)
		rng.Read(prog)
		prog[0] = byte(seed) // every geometry in turn
		runPagedProgram(t, prog, 97)
	}
}

// FuzzPagedHeap is the native fuzz target over the same op encoding:
//
//	go test ./internal/mem -run '^$' -fuzz FuzzPagedHeap -fuzztime 30s -fuzzminimizetime 20x
//
// (without the minimize bound the fuzzer spends its time shrinking each
// coverage-expanding program instead of running new ones).
func FuzzPagedHeap(f *testing.F) {
	for seed := 0; seed < len(pagedGeometries); seed++ {
		prog := make([]byte, 600)
		rand.New(rand.NewSource(int64(100 + seed))).Read(prog)
		prog[0] = byte(seed)
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1<<14 {
			t.Skip()
		}
		runPagedProgram(t, prog, 1<<30)
	})
}

func TestReadOfNeverWrittenPagesIsZeroAndMaterialisesNothing(t *testing.T) {
	h := NewHeap(100000, 10*100000) // chunk not a multiple of the page size
	off, err := h.Alloc(5 * pageSize)
	if err != nil {
		t.Fatal(err)
	}
	buf := bytes.Repeat([]byte{0xFF}, 5*pageSize)
	h.Read(off, buf)
	if !bytes.Equal(buf, make([]byte, len(buf))) {
		t.Fatal("never-written pages read nonzero")
	}
	if h.ResidentPages() != 0 || h.Snapshot().Pages() != 0 {
		t.Fatalf("alloc + read left %d resident page(s)", h.ResidentPages())
	}
	// One byte on each side of a page boundary makes exactly two resident.
	h.Write(pageSize-1, []byte{1, 2})
	if h.ResidentPages() != 2 {
		t.Fatalf("a write straddling one page boundary left %d resident pages, want 2", h.ResidentPages())
	}
}

func TestZeroSkipsPagesWithoutStorage(t *testing.T) {
	h := NewHeap(4*pageSize, 4*pageSize)
	off, err := h.Alloc(4 * pageSize)
	if err != nil {
		t.Fatal(err)
	}
	// Page 0 written before a snapshot, page 1 after, pages 2-3 untouched.
	fillPattern(h, off, pageSize, 0x21)
	snap := h.Snapshot()
	fillPattern(h, off+pageSize, pageSize, 0x42)

	h.Zero(off+pageSize/2, 3*pageSize) // half of 0, all of 1 and 2, half of 3
	if h.ResidentPages() != 2 {
		t.Fatalf("Zero left %d resident pages, want 2 (never-written pages must stay nil)", h.ResidentPages())
	}
	checkPattern(t, h, off, pageSize/2, 0x21)
	rest := make([]byte, 4*pageSize-pageSize/2)
	h.Read(off+pageSize/2, rest)
	if !bytes.Equal(rest, make([]byte, len(rest))) {
		t.Fatal("zeroed range reads nonzero")
	}
	// The snapshot's copy is untouched.
	child := NewHeap(4*pageSize, 4*pageSize)
	child.Fork(snap)
	checkPattern(t, child, off, pageSize, 0x21)
}

func TestSnapshotSurvivesChildWritesAndForkCycles(t *testing.T) {
	// A snapshot is immutable however the heaps around it diverge: two
	// children write different pages, the parent overwrites everything,
	// one child re-forks over its dirty state, and the snapshot still
	// reads exactly as captured. Each fork holds exactly the pages the
	// snapshot copied, no more.
	const span = 3*pageSize + 100
	parent := NewHeap(pageSize+8, 8*(pageSize+8))
	off, err := parent.Alloc(span)
	if err != nil {
		t.Fatal(err)
	}
	fillPattern(parent, off, span, 0x11)
	snap := parent.Snapshot()
	if snap.Pages() != 4 {
		t.Fatalf("a snapshot of %d written bytes holds %d pages, want 4", span, snap.Pages())
	}

	a, b := NewHeap(pageSize+8, 8*(pageSize+8)), NewHeap(pageSize+8, 8*(pageSize+8))
	a.Fork(snap)
	b.Fork(snap)
	if a.ResidentPages() != snap.Pages() {
		t.Fatalf("a fork holds %d pages, its snapshot %d", a.ResidentPages(), snap.Pages())
	}
	fillPattern(a, off+pageSize-4, 8, 0x77) // straddles pages 0 and 1
	fillPattern(b, off+3*pageSize, 50, 0x55)
	fillPattern(parent, off, span, 0x99)
	a.Fork(snap) // over a dirty heap
	checkPattern(t, a, off, span, 0x11)
	checkPattern(t, b, off+3*pageSize, 50, 0x55)
	checkPattern(t, parent, off, span, 0x99)
	fresh := NewHeap(pageSize+8, 8*(pageSize+8))
	fresh.Fork(snap)
	checkPattern(t, fresh, off, span, 0x11)
	// The pages a's fork displaced went back to the lender zeroed: the
	// next write that borrows one must not resurrect stale bytes.
	a.Reset()
	if _, err := a.Alloc(span); err != nil {
		t.Fatal(err)
	}
	a.Write(off+pageSize, []byte{1})
	got := make([]byte, span)
	a.Read(off, got)
	want := make([]byte, span)
	want[pageSize] = 1
	if !bytes.Equal(got, want) {
		t.Fatal("a page the lender lent again carried stale bytes")
	}
}

package driver

import (
	"bytes"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/ntb"
	"repro/internal/pcie"
	"repro/internal/sim"
)

// The pipelined receiver's slot ring — the memory its data window
// translates onto — against a flat reference array of the window. A
// program is a byte string (decoded by ringProg), so the seeded test and
// the native fuzz target drive the same interpreter. Its ops are the
// ring's storage surface as ntb.Target: copy landings with and without a
// header, zero landings bare and behind a header, ranged reads,
// ReturnStorage and Restore, and a transfer crossing a slot, which must
// panic.

// ringWindowSize is the window the programs run on: small enough that a
// program reaches every slot, large enough for several growth steps.
const ringWindowSize = 1 << 16

// ringGeometries are the slot counts a program's ring may have: one
// slot, halves, slots that do not divide the window (leaving a
// remainder), and minimum-sized slots.
var ringGeometries = []int{1, 2, 3, 5, 16, 100}

// ringProg decodes a program; an exhausted program reads as zeros.
type ringProg struct{ b []byte }

func (p *ringProg) byte() int {
	if len(p.b) == 0 {
		return 0
	}
	v := p.b[0]
	p.b = p.b[1:]
	return int(v)
}

func (p *ringProg) u16() int { return p.byte()<<8 | p.byte() }

// ringWorld is one program's ring beside its reference.
type ringWorld struct {
	t    *testing.T
	rx   *PipeRx
	ref  []byte // the window's bytes; everything not landed is zero
	fill byte
}

func newRingWorld(t *testing.T, slots int) *ringWorld {
	par := model.Default()
	par.WindowSize = ringWindowSize
	s := sim.New()
	port := ntb.NewPort("B", s, pcie.NewNetwork(s), par, pcie.NewServer("rcB", par.RootComplexBW))
	return &ringWorld{t: t, rx: NewPipeRx(port, par, slots), ref: make([]byte, ringWindowSize)}
}

// bytes returns n fresh non-zero bytes, so a lost landing shows.
func (w *ringWorld) bytes(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		w.fill = w.fill*31 + 7
		b[i] = w.fill | 1
	}
	return b
}

// frame picks a transfer of hdr+n bytes inside one slot: hdr is 0 or 64,
// n register-sized, chunk-sized or up to the rest of the slot, and the
// slot offset 0 one time in two (where a pipelined sender lands).
func (w *ringWorld) frame(p *ringProg) (off, hdr, n int) {
	sb := w.rx.slotBytes
	if p.byte()%2 == 0 {
		hdr = min(SlotHeaderBytes, sb)
	}
	most := sb - hdr
	switch v := p.u16(); p.byte() % 4 {
	case 0:
		n = v % min(64, most+1)
	case 1:
		n = v % min(4096, most+1)
	default:
		n = v % (most + 1)
	}
	off = p.byte() % len(w.rx.slots) * sb
	if p.byte()%2 == 1 {
		off += p.u16() % (sb - hdr - n + 1)
	}
	return off, hdr, n
}

// refuses runs op and fails the program unless it panics.
func (w *ringWorld) refuses(what string, op func()) {
	w.t.Helper()
	defer func() {
		w.t.Helper()
		if recover() == nil {
			w.t.Fatalf("%s did not panic", what)
		}
	}()
	op()
}

// step executes one op of the program.
func (w *ringWorld) step(p *ringProg) {
	switch op := p.byte() % 8; op {
	case 0, 1, 2: // copy landing, header optional
		off, hdr, n := w.frame(p)
		h, data := w.bytes(hdr), w.bytes(n)
		w.rx.Land(off, h, data)
		copy(w.ref[off:], h)
		copy(w.ref[off+hdr:], data)
	case 3, 4: // zero landing, header optional
		off, hdr, n := w.frame(p)
		h := w.bytes(hdr)
		w.rx.Land(off, h, mem.Zeros(n))
		copy(w.ref[off:], h)
		clear(w.ref[off+hdr : off+hdr+n])
	case 5: // ranged read
		off, hdr, n := w.frame(p)
		got := w.rx.Range(off, hdr+n)
		if !bytes.Equal(got, w.ref[off:off+hdr+n]) {
			w.t.Fatalf("read [%d,%d) differs from the reference", off, off+hdr+n)
		}
	case 6: // ReturnStorage, or Restore, which returns it too
		if p.byte()%2 == 0 {
			w.rx.ReturnStorage()
		} else {
			w.rx.Restore(PipeRxSnapshot{expect: uint32(p.byte())})
		}
		clear(w.ref)
		if n := w.rx.Resident(); n != 0 || !mem.LenderClean() {
			w.t.Fatalf("after ReturnStorage the ring holds %d bytes; lender clean: %v", n, mem.LenderClean())
		}
	case 7: // a transfer crossing into the next slot, or past the last
		sb := w.rx.slotBytes
		off := (1+p.byte()%len(w.rx.slots))*sb - 1 - p.byte()%min(8, sb)
		w.refuses("a landing across a slot boundary", func() { w.rx.Land(off, nil, make([]byte, 9)) })
	}
}

// written finds how far slot s's storage reaches without reading past
// it (a read reaching past it would extend it): bytes from there on read
// as the zero source.
func (w *ringWorld) written(s int) int {
	base := s * w.rx.slotBytes
	lo, hi := 0, w.rx.slotBytes // the reach lies in [lo, hi]
	for lo < hi {
		mid := (lo + hi) / 2
		if mem.IsZeroSource(w.rx.Range(base+mid, 1)) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// check compares every slot with the reference and holds the storage
// rules: a slot holds a lender block (a power of two of at least 4 KiB)
// reaching at least as far as its storage does, or nothing, and every
// block the ring outgrew went back to the lender cleared. It reads
// without extending any slot's storage.
func (w *ringWorld) check() {
	t := w.t
	sb := w.rx.slotBytes
	for s := range w.rx.slots {
		want := w.ref[s*sb : (s+1)*sb]
		n, reach := w.rx.slots[s].Resident(), w.written(s)
		if n != 0 && (n < 4096 || bits.OnesCount(uint(n)) != 1) || n < reach {
			t.Fatalf("slot %d holds %d bytes reaching %d, not a lender block", s, n, reach)
		}
		if !bytes.Equal(w.rx.Range(s*sb, reach), want[:reach]) || !bytes.Equal(want[reach:], make([]byte, sb-reach)) {
			t.Fatalf("slot %d differs from the reference", s)
		}
	}
	if !mem.LenderClean() {
		t.Fatal("an outgrown slot block went back to the lender with a non-zero byte")
	}
}

// runRingProgram interprets prog: its first byte picks the geometry.
func runRingProgram(t *testing.T, prog []byte, checkEvery int) {
	mem.DrainLender()
	p := &ringProg{b: prog}
	w := newRingWorld(t, ringGeometries[p.byte()%len(ringGeometries)])
	for n := 1; len(p.b) > 0; n++ {
		w.step(p)
		if n%checkEvery == 0 {
			w.check()
		}
	}
	w.check()
	w.rx.ReturnStorage()
	if !mem.LenderClean() || !mem.ZeroSourceIntact() {
		t.Fatal("the ring gave storage back dirty, or wrote the zero source")
	}
}

func TestSlotRingDifferential(t *testing.T) {
	programs, length := 36, 2400
	if testing.Short() {
		programs = 12
	}
	for seed := 0; seed < programs; seed++ {
		prog := make([]byte, length)
		rand.New(rand.NewSource(int64(seed))).Read(prog)
		runRingProgram(t, prog, 61)
	}
}

// FuzzSlotRing is the native fuzz target over the same op encoding:
//
//	go test ./internal/driver -run '^$' -fuzz FuzzSlotRing -fuzztime 30s -fuzzminimizetime 20x
func FuzzSlotRing(f *testing.F) {
	for seed := 0; seed < 6; seed++ {
		prog := make([]byte, 600)
		rand.New(rand.NewSource(int64(100 + seed))).Read(prog)
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1<<14 {
			t.Skip()
		}
		runRingProgram(t, prog, 1<<30)
	})
}

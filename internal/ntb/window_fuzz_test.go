package ntb

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/pcie"
	"repro/internal/sim"
)

// The inbound windows' translation, loan and reclaimed-bracket rules
// against a reference that shares none of their mechanisms: per region a
// flat byte array for what landed, a flag per byte for what a reclaimed
// loan left without a value, and a copy of the outstanding loan's bytes.
// The receiver's data window translates onto the simplest memory there
// is, a flat array (flatTarget), so what is checked is the port's
// routing, not a target's storage (a slot ring's storage has its own
// differential test in internal/driver); its bypass window has no
// translation, as on a fabric-built port. A program is a byte string
// (decoded by winProg), so the seeded test and the native fuzz target
// drive the same interpreter. Its ops are the window's whole surface:
// copy landings (PIO, and DMA behind a header), zero landings, loans by
// DMA and by PIO and their reclaim, ranged reads, Snapshot/Restore and a
// new translation — and the misuses each must refuse with a panic.

// fuzzWindowSize is the window the programs run on.
const fuzzWindowSize = 1 << 16

const windowSnaps = 3

// refRegion is the reference model of one inbound window.
type refRegion struct {
	data   []byte // everything not landed is zero
	poison []bool // reclaimed and not covered since: the bytes have no value
	stale  extentRef
	loan   []byte // a copy of the outstanding loan's bytes; nil when none
	lands  int    // landings the translation has received
}

// extentRef is the reference's bracket of reclaimed bytes; lo == hi when
// empty. It follows the rules the port documents for winStale: a reclaim
// widens it over the loan, a landing drops what it covers only where
// that leaves one range.
type extentRef struct{ lo, hi int }

func (e extentRef) hits(off, n int) bool { return e.lo < e.hi && n > 0 && off < e.hi && e.lo < off+n }

func newRefRegion() refRegion {
	return refRegion{data: make([]byte, fuzzWindowSize), poison: make([]bool, fuzzWindowSize)}
}

// cover records a landing of bytes b at off: they hold a value now.
func (r *refRegion) cover(off int, b []byte) {
	copy(r.data[off:], b)
	for i := off; i < off+len(b); i++ {
		r.poison[i] = false
	}
	end := off + len(b)
	switch e := &r.stale; {
	case e.lo == e.hi || end <= e.lo || off >= e.hi:
	case off <= e.lo && end >= e.hi:
		*e = extentRef{}
	case off <= e.lo:
		e.lo = end
	case end >= e.hi:
		e.hi = off
	}
}

// reclaim ends the loan: its bytes lose their value.
func (r *refRegion) reclaim() {
	n := len(r.loan)
	for i := range n {
		r.poison[i] = true
	}
	if r.stale.lo == r.stale.hi {
		r.stale = extentRef{0, n}
	} else {
		r.stale = extentRef{0, max(r.stale.hi, n)}
	}
	r.loan = nil
}

// flatTarget is the simplest memory a window translates onto: a flat
// array, and a count of the landings it received.
type flatTarget struct {
	mem   []byte
	lands int
}

func (f *flatTarget) Land(off int, hdr, data []byte) {
	copy(f.mem[off:], hdr)
	copy(f.mem[off+len(hdr):], data)
	f.lands++
}

func (f *flatTarget) Range(off, n int) []byte { return f.mem[off : off+n] }

// winProg decodes a program; an exhausted program reads as zeros.
type winProg struct{ b []byte }

func (p *winProg) done() bool { return len(p.b) == 0 }

func (p *winProg) byte() int {
	if len(p.b) == 0 {
		return 0
	}
	v := p.b[0]
	p.b = p.b[1:]
	return int(v)
}

func (p *winProg) u16() int { return p.byte()<<8 | p.byte() }

// windowWorld is what one program runs against: a sender a cabled to a
// receiver b, whose data window translates onto target and whose bypass
// window onto nothing, both beside their references, the sender's
// buffers behind outstanding loans, and a few snapshot slots, each
// beside the reclaimed brackets it was taken with.
type windowWorld struct {
	t      *testing.T
	s      *sim.Simulator
	a, b   *Port
	target *flatTarget
	ref    [numRegions]refRegion
	lent   [numRegions][]byte
	snaps  [windowSnaps]*PortSnapshot
	images [windowSnaps][numRegions]extentRef
	fill   byte
}

// windowPair builds a sender and a receiver port on one flow network.
func windowPair() (*sim.Simulator, *Port, *Port) {
	par := model.Default()
	par.WindowSize = fuzzWindowSize
	s := sim.New()
	net := pcie.NewNetwork(s)
	a := NewPort("A", s, net, par, pcie.NewServer("rcA", par.RootComplexBW))
	b := NewPort("B", s, net, par, pcie.NewServer("rcB", par.RootComplexBW))
	Connect(a, b)
	return s, a, b
}

func newWindowWorld(t *testing.T) *windowWorld {
	w := &windowWorld{t: t}
	w.s, w.a, w.b = windowPair()
	w.translate()
	w.b.SetTrans(RegionBypass, nil)
	for r := range w.ref {
		w.ref[r] = newRefRegion()
	}
	return w
}

// translate points the data window at a new, empty flat target.
func (w *windowWorld) translate() {
	w.target = &flatTarget{mem: make([]byte, fuzzWindowSize)}
	w.b.SetTrans(RegionData, w.target)
}

// proc runs body as one process of the world's simulator.
func (w *windowWorld) proc(body func(p *sim.Proc)) {
	w.t.Helper()
	w.s.Go("op", body)
	if err := w.s.Run(); err != nil {
		w.t.Fatal(err)
	}
}

// refuses runs op and fails the program unless it panics.
func (w *windowWorld) refuses(what string, op func()) {
	w.t.Helper()
	defer func() {
		w.t.Helper()
		if recover() == nil {
			w.t.Fatalf("%s did not panic", what)
		}
	}()
	op()
}

// bytes returns n fresh non-zero bytes, so a lost landing shows.
func (w *windowWorld) bytes(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		w.fill = w.fill*31 + 7
		b[i] = w.fill | 1
	}
	return b
}

// size draws a transfer length from three classes: register-sized,
// chunk-sized, and up to most.
func size(p *winProg, most int) int {
	switch v := p.u16(); p.byte() % 4 {
	case 0:
		return 1 + v%min(64, most)
	case 1:
		return 1 + v%min(4096, most)
	default:
		return 1 + v%most
	}
}

// place picks a range of n bytes inside the window, at its first byte
// one time in four (where loans live).
func place(p *winProg, n int) int {
	if p.byte()%4 == 0 {
		return 0
	}
	return p.u16() % (fuzzWindowSize - n + 1)
}

// anyLoan reports whether either window of the receiver is lent.
func (w *windowWorld) anyLoan() bool { return w.ref[0].loan != nil || w.ref[1].loan != nil }

// step executes one op of the program.
func (w *windowWorld) step(p *winProg) {
	op, r := p.byte()%13, Region(p.byte()%int(numRegions))
	ref := &w.ref[r]
	translated := r == RegionData
	switch op {
	case 0, 1, 2: // copy landing: PIO, PIO behind a header, DMA behind a header
		hdr := 0
		if op > 0 {
			hdr = 1 + p.byte()%64
		}
		n := size(p, fuzzWindowSize-hdr)
		off := place(p, hdr+n)
		h, data := w.bytes(hdr), w.bytes(n)
		overLoan := ref.loan != nil && off < len(ref.loan)
		if overLoan || !translated {
			if op == 2 {
				return // the engine would panic in its own process
			}
			w.proc(func(pr *sim.Proc) {
				w.refuses("a landing over a loan or into no translation", func() { w.a.CPUWriteHdr(pr, r, off, h, data) })
			})
			return
		}
		w.proc(func(pr *sim.Proc) {
			if op == 2 {
				w.a.DMA().SubmitWait(pr, Desc{Region: r, Off: off, Hdr: h, Src: data, Bytes: n})
			} else {
				w.a.CPUWriteHdr(pr, r, off, h, data)
			}
		})
		ref.cover(off, append(h, data...))
		ref.lands++
	case 3, 4: // zero landing, PIO and DMA, headerless: a translation stores zeros, none stores nothing
		n := size(p, fuzzWindowSize)
		off := place(p, n)
		if ref.loan != nil && off < len(ref.loan) {
			return
		}
		w.proc(func(pr *sim.Proc) {
			if op == 3 {
				w.a.CPUWrite(pr, r, off, mem.Zeros(n))
			} else {
				w.a.DMA().SubmitWait(pr, Desc{Region: r, Off: off, Src: mem.Zeros(n), Bytes: n})
			}
		})
		ref.cover(off, make([]byte, n))
		if translated {
			ref.lands++
		}
	case 5, 6: // loan, by DMA and by PIO: the translation is not touched
		n := size(p, fuzzWindowSize)
		data := w.bytes(n)
		if ref.loan != nil {
			if op == 6 {
				w.proc(func(pr *sim.Proc) {
					w.refuses("a second loan", func() { w.a.CPULend(pr, r, data) })
				})
			}
			return
		}
		w.proc(func(pr *sim.Proc) {
			if op == 5 {
				w.a.DMA().LendWait(pr, r, data)
			} else {
				w.a.CPULend(pr, r, data)
			}
		})
		w.lent[r] = data
		ref.cover(0, ref.data[:n]) // the bytes under the loan keep their value
		ref.loan = bytes.Clone(data)
	case 7: // reclaim
		if ref.loan == nil {
			w.refuses("a reclaim with no loan", func() { w.a.Reclaim(r) })
			return
		}
		w.a.Reclaim(r)
		ref.reclaim()
		w.lent[r] = nil
	case 8: // the sender writes its lent buffer: the window is that buffer
		if ref.loan == nil {
			return
		}
		i := p.u16() % len(ref.loan)
		w.lent[r][i] ^= 0x5A
		ref.loan[i] ^= 0x5A
	case 9: // ranged read
		n := size(p, fuzzWindowSize)
		w.read(r, place(p, n), n)
	case 10: // Snapshot
		k := p.byte() % windowSnaps
		if w.anyLoan() {
			w.refuses("a snapshot while lent", func() { w.b.Snapshot() })
			return
		}
		w.snaps[k] = w.b.Snapshot()
		for i := range w.ref {
			w.images[k][i] = w.ref[i].stale
		}
	case 11: // Restore: the brackets come back, the translation's memory stays
		k := p.byte() % windowSnaps
		if w.snaps[k] == nil {
			return
		}
		if w.anyLoan() {
			w.refuses("a restore while lent", func() { w.b.Restore(w.snaps[k]) })
			return
		}
		w.b.Restore(w.snaps[k])
		for i := range w.ref {
			w.ref[i].stale = w.images[k][i]
			for j := range w.ref[i].poison {
				w.ref[i].poison[j] = w.ref[i].stale.hits(j, 1)
			}
		}
	case 12: // a new translation onto empty memory
		w.translate()
		d := &w.ref[RegionData]
		clear(d.data)
		d.lands = 0
	}
}

// read checks InboundRange(r, off, n) against the reference: the loan's
// own bytes inside a loan, a panic for a range straddling it or touching
// the reclaimed bracket, the landed bytes otherwise.
func (w *windowWorld) read(r Region, off, n int) {
	t := w.t
	ref := &w.ref[r]
	switch {
	case ref.loan != nil && off < len(ref.loan) && off+n > len(ref.loan):
		w.refuses("a read straddling a loan", func() { w.b.InboundRange(r, off, n) })
	case ref.loan != nil && off < len(ref.loan):
		got := w.b.InboundRange(r, off, n)
		if &got[0] != &w.lent[r][off] || !bytes.Equal(got, ref.loan[off:off+n]) {
			t.Fatalf("read [%d,%d) of the %v window is not the lent buffer", off, off+n, r)
		}
	case ref.stale.hits(off, n):
		w.refuses("a read of reclaimed bytes", func() { w.b.InboundRange(r, off, n) })
	default:
		for i := off; i < off+n; i++ {
			if ref.poison[i] {
				t.Fatalf("reference: byte %d of the %v window lies outside the reclaimed bracket %+v", i, r, ref.stale)
			}
		}
		if got := w.b.InboundRange(r, off, n); !bytes.Equal(got, ref.data[off:off+n]) {
			t.Fatalf("read [%d,%d) of the %v window differs from the reference", off, off+n, r)
		}
	}
}

// check compares everything observable: each window's readable bytes,
// its reclaimed bracket and the landings its translation received; then
// every snapshot, through a fresh port restored from it, against the
// brackets taken with it.
func (w *windowWorld) check() {
	t := w.t
	t.Helper()
	for r := range w.ref {
		ref, port, lent := &w.ref[r], w.b, w.lent[r]
		if got := port.winStale[r]; int(got.lo) != ref.stale.lo || int(got.hi) != ref.stale.hi {
			t.Fatalf("%v window: reclaimed bracket %+v, reference %+v", Region(r), got, ref.stale)
		}
		if Region(r) == RegionData && w.target.lands != ref.lands {
			t.Fatalf("the translation received %d landings, reference %d", w.target.lands, ref.lands)
		}
		// Walk the window in runs that are all loan, all reclaimed
		// bracket, or neither; a loan and the bracket never meet.
		for off := 0; off < fuzzWindowSize; {
			end := fuzzWindowSize
			switch l, s := len(ref.loan), ref.stale; {
			case off < l:
				end = l
				if got := port.InboundRange(Region(r), off, end-off); !bytes.Equal(got, ref.loan[off:end]) || &got[0] != &lent[off] {
					t.Fatalf("%v window: loan bytes [%d,%d) are not the lent buffer", Region(r), off, end)
				}
			case s.lo <= off && off < s.hi:
				end = s.hi
			default:
				if s.lo < s.hi && s.lo > off {
					end = s.lo
				}
				if got := port.InboundRange(Region(r), off, end-off); !bytes.Equal(got, ref.data[off:end]) {
					t.Fatalf("%v window: bytes [%d,%d) differ from the reference", Region(r), off, end)
				}
			}
			off = end
		}
	}
	for k, snap := range w.snaps {
		if snap == nil {
			continue
		}
		_, _, fresh := windowPair()
		fresh.Restore(snap)
		for r := range w.images[k] {
			if got, want := fresh.winStale[r], w.images[k][r]; int(got.lo) != want.lo || int(got.hi) != want.hi {
				t.Fatalf("snapshot %d: %v window's restored bracket %+v, captured %+v", k, Region(r), got, want)
			}
		}
	}
}

// runWindowProgram interprets prog.
func runWindowProgram(t *testing.T, prog []byte, checkEvery int) {
	p := &winProg{b: prog}
	w := newWindowWorld(t)
	defer w.s.Shutdown()
	for n := 1; !p.done(); n++ {
		w.step(p)
		if n%checkEvery == 0 {
			w.check()
		}
	}
	w.check()
}

func TestInboundWindowDifferential(t *testing.T) {
	programs, length := 24, 2400
	if testing.Short() {
		programs = 8
	}
	for seed := 0; seed < programs; seed++ {
		prog := make([]byte, length)
		rand.New(rand.NewSource(int64(seed))).Read(prog)
		runWindowProgram(t, prog, 61)
	}
}

// FuzzInboundWindow is the native fuzz target over the same op encoding:
//
//	go test ./internal/ntb -run '^$' -fuzz FuzzInboundWindow -fuzztime 30s -fuzzminimizetime 20x
//
// (without the minimize bound the fuzzer spends its time shrinking each
// coverage-expanding program instead of running new ones).
func FuzzInboundWindow(f *testing.F) {
	for seed := 0; seed < 6; seed++ {
		prog := make([]byte, 600)
		rand.New(rand.NewSource(int64(100 + seed))).Read(prog)
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1<<14 {
			t.Skip()
		}
		runWindowProgram(t, prog, 1<<30)
	})
}

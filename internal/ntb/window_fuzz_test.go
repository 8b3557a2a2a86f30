package ntb

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/pcie"
	"repro/internal/sim"
)

// The inbound windows against a reference that shares none of their
// mechanisms: per region a flat byte array for the contents, a flag per
// byte for what a reclaimed loan left without a value, and a copy of the
// outstanding loan's bytes. A program is a byte string (decoded by
// winProg), so the seeded test and the native fuzz target drive the same
// interpreter. Its ops are the window's whole surface: copy landings
// (PIO, and DMA behind a header), zero landings, loans by DMA and by PIO
// and their reclaim, ranged reads, Partition, Snapshot/Restore and
// ReturnStorage — and the misuses each must refuse with a panic.

// fuzzWindowSize is the window the programs run on: small enough that a
// program reaches every part, large enough for several growth steps.
const fuzzWindowSize = 1 << 16

// windowGeometries are the part counts Partition divides a region into:
// whole, halves, parts that do not divide the window (leaving a
// remainder), and minimum-sized parts.
var windowGeometries = []int{1, 2, 3, 5, 16}

const windowSnaps = 3

// refRegion is the reference model of one inbound window.
type refRegion struct {
	parts  int
	data   []byte // everything not landed is zero
	poison []bool // reclaimed and not covered since: the bytes have no value
	stale  extentRef
	loan   []byte // a copy of the outstanding loan's bytes; nil when none
}

// extentRef is the reference's bracket of reclaimed bytes; lo == hi when
// empty. It follows the rules the port documents for winStale: a reclaim
// widens it over the loan, a landing drops what it covers only where
// that leaves one range.
type extentRef struct{ lo, hi int }

func (e extentRef) hits(off, n int) bool { return e.lo < e.hi && n > 0 && off < e.hi && e.lo < off+n }

func newRefRegion() refRegion {
	return refRegion{parts: 1, data: make([]byte, fuzzWindowSize), poison: make([]bool, fuzzWindowSize)}
}

func (r *refRegion) partBytes() int { return fuzzWindowSize / r.parts }

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

func (r *refRegion) clone() refRegion {
	c := *r
	c.data, c.poison = bytes.Clone(r.data), append([]bool(nil), r.poison...)
	return c
}

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
// receiver b, whose two windows sit beside their references, the
// sender's buffers behind outstanding loans, and a few snapshot slots,
// each beside its image.
type windowWorld struct {
	t      *testing.T
	s      *sim.Simulator
	a, b   *Port
	ref    [numRegions]refRegion
	lent   [numRegions][]byte
	snaps  [windowSnaps]*PortSnapshot
	images [windowSnaps][numRegions]refRegion
	fill   byte
}

func fuzzParams() *model.Params {
	par := model.Default()
	par.WindowSize = fuzzWindowSize
	return par
}

// windowPair builds a sender and a receiver port on one flow network.
func windowPair(par *model.Params) (*sim.Simulator, *Port, *Port) {
	s := sim.New()
	net := pcie.NewNetwork(s)
	a := NewPort("A", s, net, par, pcie.NewServer("rcA", par.RootComplexBW))
	b := NewPort("B", s, net, par, pcie.NewServer("rcB", par.RootComplexBW))
	Connect(a, b)
	return s, a, b
}

func newWindowWorld(t *testing.T) *windowWorld {
	w := &windowWorld{t: t}
	w.s, w.a, w.b = windowPair(fuzzParams())
	for r := range w.ref {
		w.ref[r] = newRefRegion()
	}
	return w
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
// chunk-sized, and up to a whole part.
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

// place picks a range of n bytes inside one part of region r, at the
// part's first byte one time in four (where loans live).
func (w *windowWorld) place(p *winProg, r Region, n int) int {
	ref := &w.ref[r]
	pb := ref.partBytes()
	base := p.byte() % ref.parts * pb
	if p.byte()%4 == 0 {
		return base
	}
	return base + p.u16()%(pb-n+1)
}

// anyLoan reports whether either window of the receiver is lent.
func (w *windowWorld) anyLoan() bool { return w.ref[0].loan != nil || w.ref[1].loan != nil }

// step executes one op of the program.
func (w *windowWorld) step(p *winProg) {
	t := w.t
	op, r := p.byte()%13, Region(p.byte()%int(numRegions))
	ref := &w.ref[r]
	pb := ref.partBytes()
	switch op {
	case 0, 1, 2: // copy landing: PIO, PIO behind a header, DMA behind a header
		hdr := 0
		if op > 0 {
			hdr = 1 + p.byte()%64
		}
		n := size(p, pb-hdr)
		off := w.place(p, r, hdr+n)
		h, data := w.bytes(hdr), w.bytes(n)
		if ref.loan != nil && off < len(ref.loan) {
			if op == 2 {
				return // the engine would panic in its own process
			}
			w.proc(func(pr *sim.Proc) {
				w.refuses("a landing over a loan", func() { w.a.CPUWriteHdr(pr, r, off, h, data) })
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
	case 3, 4: // zero landing, PIO and DMA, headerless: materialises nothing
		n := size(p, pb)
		off := w.place(p, r, n)
		if ref.loan != nil && off < len(ref.loan) {
			return
		}
		resident := w.b.WindowResident(r)
		w.proc(func(pr *sim.Proc) {
			if op == 3 {
				w.a.CPUWrite(pr, r, off, mem.Zeros(n))
			} else {
				w.a.DMA().SubmitWait(pr, Desc{Region: r, Off: off, Src: mem.Zeros(n), Bytes: n})
			}
		})
		ref.cover(off, make([]byte, n))
		if got := w.b.WindowResident(r); got != resident {
			t.Fatalf("a zero landing changed the %v window's storage %d -> %d", r, resident, got)
		}
	case 5, 6: // loan, by DMA and by PIO: borrows no storage, dirties nothing
		n := size(p, pb)
		data := w.bytes(n)
		if ref.loan != nil {
			if op == 6 {
				w.proc(func(pr *sim.Proc) {
					w.refuses("a second loan", func() { w.a.CPULend(pr, r, data) })
				})
			}
			return
		}
		resident, dirty := w.b.WindowResident(r), w.b.winDirty[r]
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
		if w.b.WindowResident(r) != resident || w.b.winDirty[r] != dirty {
			t.Fatalf("a loan grew the %v window: storage %d -> %d, dirty %+v -> %+v",
				r, resident, w.b.WindowResident(r), dirty, w.b.winDirty[r])
		}
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
		n := size(p, pb)
		w.read(r, w.place(p, r, n), n)
	case 10: // Snapshot
		k := p.byte() % windowSnaps
		if w.anyLoan() {
			w.refuses("a snapshot while lent", func() { w.b.Snapshot() })
			return
		}
		w.snaps[k] = w.b.Snapshot()
		for i := range w.ref {
			w.images[k][i] = w.ref[i].clone()
		}
	case 11: // Restore
		k := p.byte() % windowSnaps
		if w.snaps[k] == nil || w.images[k][0].parts != w.ref[0].parts || w.images[k][1].parts != w.ref[1].parts {
			return
		}
		if w.anyLoan() {
			w.refuses("a restore while lent", func() { w.b.Restore(w.snaps[k]) })
			return
		}
		w.b.Restore(w.snaps[k])
		for i := range w.ref {
			w.ref[i] = w.images[k][i].clone()
		}
	case 12: // ReturnStorage, then perhaps Partition the clean window
		if w.anyLoan() {
			w.refuses("a storage return while lent", func() { w.b.ReturnStorage() })
			return
		}
		w.b.ReturnStorage()
		for i := range w.ref {
			parts := w.ref[i].parts
			w.ref[i] = newRefRegion()
			w.ref[i].parts = parts
		}
		if w.b.WindowResident(RegionData)+w.b.WindowResident(RegionBypass) != 0 {
			t.Fatal("ReturnStorage left window storage")
		}
		if g := p.byte(); g%2 == 0 {
			parts := windowGeometries[g/2%len(windowGeometries)]
			w.b.Partition(r, parts)
			ref.parts = parts
		}
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
// part by part, its reclaimed bracket, and the dirty-extent promise that
// every landed non-zero byte lies inside it; then every snapshot, through
// a fresh port restored from it, against the image taken with it.
func (w *windowWorld) check() {
	t := w.t
	t.Helper()
	same := func(what string, port *Port, ref *refRegion, r Region, lent []byte) {
		t.Helper()
		if got := port.winStale[r]; int(got.lo) != ref.stale.lo || int(got.hi) != ref.stale.hi {
			t.Fatalf("%s %v window: reclaimed bracket %+v, reference %+v", what, r, got, ref.stale)
		}
		d := port.winDirty[r]
		for i, b := range ref.data {
			if b != 0 && !ref.poison[i] && (i < int(d.lo) || i >= int(d.hi)) && (ref.loan == nil || i >= len(ref.loan)) {
				t.Fatalf("%s %v window: landed byte %d lies outside the dirty extent %+v", what, r, i, d)
			}
		}
		pb := ref.partBytes()
		for base := 0; base+pb <= fuzzWindowSize; base += pb {
			// Walk the part in runs that are all loan, all reclaimed
			// bracket, or neither; a loan and the bracket never meet.
			for off := base; off < base+pb; {
				end := base + pb
				switch l, s := len(ref.loan), ref.stale; {
				case off < l:
					end = min(end, l)
					if got := port.InboundRange(r, off, end-off); !bytes.Equal(got, ref.loan[off:end]) || &got[0] != &lent[off] {
						t.Fatalf("%s %v window: loan bytes [%d,%d) are not the lent buffer", what, r, off, end)
					}
				case s.lo <= off && off < s.hi:
					end = min(end, s.hi)
				default:
					if s.lo < s.hi && s.lo > off {
						end = min(end, s.lo)
					}
					if got := port.InboundRange(r, off, end-off); !bytes.Equal(got, ref.data[off:end]) {
						t.Fatalf("%s %v window: bytes [%d,%d) differ from the reference", what, r, off, end)
					}
				}
				off = end
			}
		}
	}
	for r := range w.ref {
		same("port", w.b, &w.ref[r], Region(r), w.lent[r])
	}
	if !mem.LenderClean() {
		t.Fatal("window storage went back to the lender with a non-zero byte")
	}
	for k, snap := range w.snaps {
		if snap == nil {
			continue
		}
		_, _, fresh := windowPair(w.b.par)
		for r := range fresh.inbound {
			if parts := w.images[k][r].parts; parts > 1 {
				fresh.Partition(Region(r), parts)
			}
		}
		fresh.Restore(snap)
		for r := range w.images[k] {
			same(fmt.Sprintf("snapshot %d", k), fresh, &w.images[k][r], Region(r), nil)
		}
		fresh.ReturnStorage()
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
	for r := range w.ref {
		if w.ref[r].loan != nil {
			w.a.Reclaim(Region(r))
		}
	}
	w.b.ReturnStorage()
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

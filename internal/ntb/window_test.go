package ntb

import (
	"bytes"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// run executes body as one process and fails the test on a simulation
// error.
func run(t *testing.T, s *sim.Simulator, body func(p *sim.Proc)) {
	t.Helper()
	s.Go("body", body)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWindowMaterialisesOnlyToHighestByteReached(t *testing.T) {
	s, a, b, par := pair(t)
	if len(b.inbound[RegionData]) != 0 {
		t.Fatal("a fresh port holds window storage")
	}
	run(t, s, func(p *sim.Proc) { a.CPUWrite(p, RegionData, 0, []byte{1, 2, 3}) })
	if got := len(b.inbound[RegionData]); got != minWindow {
		t.Fatalf("a 3-byte write materialised %d bytes, want %d", got, minWindow)
	}
	// Power-of-two steps: a DMA descriptor ending at 40 000 takes 64 KiB.
	run(t, s, func(p *sim.Proc) {
		a.DMA().SubmitWait(p, Desc{Region: RegionData, Off: 39000, Src: bytes.Repeat([]byte{9}, 1000), Bytes: 1000})
	})
	if got := len(b.inbound[RegionData]); got != 1<<16 {
		t.Fatalf("a descriptor ending at 40000 materialised %d bytes, want %d", got, 1<<16)
	}
	if len(b.inbound[RegionBypass]) != 0 {
		t.Fatal("the untouched bypass window was materialised")
	}
	// The earlier bytes moved with the growth step, and everything
	// between the two writes reads as zero.
	win := b.InboundPrefix(RegionData, 40000)
	want := make([]byte, 40000)
	copy(want, []byte{1, 2, 3})
	copy(want[39000:], bytes.Repeat([]byte{9}, 1000))
	if !bytes.Equal(win, want) {
		t.Fatal("window contents wrong after a growth step")
	}
	// The last byte of the window caps growth at WindowSize.
	run(t, s, func(p *sim.Proc) { a.CPUWrite(p, RegionData, par.WindowSize-1, []byte{7}) })
	if got := len(b.inbound[RegionData]); got != par.WindowSize {
		t.Fatalf("a write to the last byte materialised %d bytes, want WindowSize %d", got, par.WindowSize)
	}
}

func TestWindowWriteHighReadsLowUntouchedBytesAsZero(t *testing.T) {
	s, a, b, _ := pair(t)
	run(t, s, func(p *sim.Proc) { a.CPUWrite(p, RegionBypass, 70000, []byte("high")) })
	low := make([]byte, 70000)
	run(t, s, func(p *sim.Proc) { a.CPURead(p, RegionBypass, 0, low[:4096]) })
	if !bytes.Equal(low[:4096], make([]byte, 4096)) {
		t.Fatal("untouched low bytes read nonzero across the link")
	}
	if !bytes.Equal(b.Inbound(RegionBypass)[:70000], low) || string(b.Inbound(RegionBypass)[70000:70004]) != "high" {
		t.Fatal("full-window view wrong below or at the high write")
	}
	// A reader of a window nobody wrote sees zeros too.
	if !bytes.Equal(b.InboundPrefix(RegionData, 512), make([]byte, 512)) {
		t.Fatal("never-written window reads nonzero")
	}
}

func TestWindowPayloadAliasSurvivesLaterLargerWrite(t *testing.T) {
	// A service thread takes its alias of a small message's payload; a
	// later, larger message makes the window grow. The alias must go on
	// reading the bytes it was taken for, and the window must hold the
	// new message.
	s, a, b, _ := pair(t)
	small := bytes.Repeat([]byte{0x5A}, 3000)
	run(t, s, func(p *sim.Proc) { a.CPUWrite(p, RegionData, 0, small) })
	alias := b.InboundPrefix(RegionData, len(small))
	large := bytes.Repeat([]byte{0xC3}, 200000)
	run(t, s, func(p *sim.Proc) {
		a.DMA().SubmitWait(p, Desc{Region: RegionData, Off: 4096, Src: large, Bytes: len(large)})
	})
	if !bytes.Equal(alias, small) {
		t.Fatal("an alias taken before a growth step lost its bytes")
	}
	now := b.InboundPrefix(RegionData, 4096+len(large))
	if !bytes.Equal(now[:len(small)], small) || !bytes.Equal(now[4096:], large) {
		t.Fatal("window contents wrong after growth")
	}
}

func TestWindowSnapshotRestoreAcrossGrowthStep(t *testing.T) {
	// Captured small, restored over a port that grew: the grown tail reads
	// zero again. Captured grown, restored into a port that never grew:
	// Restore materialises as far as the captured extent.
	s0, a0, b0, _ := pair(t)
	run(t, s0, func(p *sim.Proc) { a0.CPUWrite(p, RegionData, 100, []byte("small")) })
	small := b0.Snapshot()
	run(t, s0, func(p *sim.Proc) { a0.CPUWrite(p, RegionData, 300000, []byte("grown")) })
	grown := b0.Snapshot()
	if len(b0.inbound[RegionData]) != 1<<19 {
		t.Fatalf("test setup: window at %d bytes", len(b0.inbound[RegionData]))
	}

	b0.Restore(small)
	want := make([]byte, 1<<19)
	copy(want[100:], "small")
	if !bytes.Equal(b0.inbound[RegionData], want) {
		t.Fatal("restore of the small image over a grown window left stale bytes")
	}

	_, _, fresh, par := pair(t)
	fresh.Restore(grown)
	if got := len(fresh.inbound[RegionData]); got != 1<<19 {
		t.Fatalf("restore of the grown image materialised %d bytes, want %d", got, 1<<19)
	}
	full := make([]byte, par.WindowSize)
	copy(full[100:], "small")
	copy(full[300000:], "grown")
	if !bytes.Equal(fresh.Inbound(RegionData), full) {
		t.Fatal("restored window differs from the captured one")
	}
	b0.Restore(grown)
	if !bytes.Equal(b0.Inbound(RegionData), full) {
		t.Fatal("re-restore of the grown image over the small one differs")
	}
}

func TestWindowFullInboundIsWholeAndStable(t *testing.T) {
	// The pipelined receiver's contract: Inbound is the whole window, it
	// keeps what demand-sized writes already landed, and once taken it is
	// the store every later write lands in (no further growth to orphan
	// it).
	s, a, b, par := pair(t)
	run(t, s, func(p *sim.Proc) { a.CPUWrite(p, RegionData, 64, []byte("slot0")) })
	win := b.Inbound(RegionData)
	if len(win) != par.WindowSize || string(win[64:69]) != "slot0" {
		t.Fatalf("full window is %d bytes, holds %q", len(win), win[64:69])
	}
	run(t, s, func(p *sim.Proc) { a.CPUWrite(p, RegionData, par.WindowSize/2, []byte("slot1")) })
	if string(win[par.WindowSize/2:par.WindowSize/2+5]) != "slot1" {
		t.Fatal("a write after the full window was taken did not land in it")
	}
	win[64] = 0 // the receiver's in-place edit is visible to the port
	if b.Inbound(RegionData)[64] != 0 {
		t.Fatal("Inbound returned a different store the second time")
	}
}

func TestZeroLandingMaterialisesAndDirtiesNothing(t *testing.T) {
	// Zero transfers — the zero source by DMA and by PIO, at any offset
	// into it and into the window — reach a clean window without giving
	// it storage, and a receiver's prefix of it is the zero source. Time
	// and trace bytes are a copy's.
	s, a, b, _ := pair(t)
	var traced int
	a.SetTrace(func(ev TraceEvent) { traced += ev.Bytes })
	var took sim.Duration
	run(t, s, func(p *sim.Proc) {
		start := p.Now()
		a.DMA().SubmitWait(p, Desc{Region: RegionData, Src: mem.Zeros(50000), Bytes: 50000})
		took = p.Now().Sub(start)
		a.DMA().SubmitWait(p, Desc{Region: RegionData, Off: 100, Src: mem.Zeros(50100)[100:], Bytes: 50000})
		a.CPUWrite(p, RegionBypass, 0, mem.Zeros(3000))
		a.CPUWrite(p, RegionBypass, 10, mem.Zeros(3010)[10:])
	})
	if traced != 50000+50000+3000+3000 {
		t.Fatalf("traced %d bytes", traced)
	}
	_, a2, _, _ := pair(t)
	var copyTook sim.Duration
	run(t, a2.sim, func(p *sim.Proc) {
		start := p.Now()
		a2.DMA().SubmitWait(p, Desc{Region: RegionData, Src: bytes.Repeat([]byte{1}, 50000), Bytes: 50000})
		copyTook = p.Now().Sub(start)
	})
	if took != copyTook {
		t.Fatalf("a zero DMA took %v, a copying one %v", took, copyTook)
	}
	for _, r := range []Region{RegionData, RegionBypass} {
		if n := b.WindowResident(r); n != 0 || b.winDirty[r] != (extent{}) {
			t.Fatalf("%v window: %d bytes materialised, dirty %+v", r, n, b.winDirty[r])
		}
	}
	if got := b.InboundPrefix(RegionData, 50100); !mem.IsZeroSource(got) || len(got) != 50100 {
		t.Fatal("a clean window's prefix is not the zero source")
	}
}

func TestZeroLandingClearsOnlyTheDirtyOverlap(t *testing.T) {
	s, a, b, _ := pair(t)
	data := bytes.Repeat([]byte{0xAB}, 3000)
	run(t, s, func(p *sim.Proc) { a.CPUWrite(p, RegionData, 0, data) })
	// A zero chunk over the head trims the extent; its prefix is clean.
	run(t, s, func(p *sim.Proc) { a.CPUWrite(p, RegionData, 0, mem.Zeros(1000)) })
	if d := b.winDirty[RegionData]; d != (extent{1000, 3000}) {
		t.Fatalf("dirty extent %+v after a zero head landing, want [1000,3000)", d)
	}
	if !mem.IsZeroSource(b.InboundPrefix(RegionData, 1000)) {
		t.Fatal("the cleared head is not served as the zero source")
	}
	want := append(make([]byte, 1000), data[1000:]...)
	if got := b.InboundPrefix(RegionData, 3000); !bytes.Equal(got, want) {
		t.Fatal("window bytes wrong after a zero head landing")
	}
	// A zero chunk inside the extent clears in place and keeps it.
	run(t, s, func(p *sim.Proc) { a.CPUWrite(p, RegionData, 1500, mem.Zeros(500)) })
	clear(want[1500:2000])
	if got := b.InboundPrefix(RegionData, 3000); !bytes.Equal(got, want) || b.winDirty[RegionData] != (extent{1000, 3000}) {
		t.Fatalf("inner zero landing: bytes right %v, dirty %+v", bytes.Equal(got, want), b.winDirty[RegionData])
	}
	// One covering the whole extent leaves the window clean, and a
	// restore from a dirty image still rezeroes what it must.
	snap := b.Snapshot()
	run(t, s, func(p *sim.Proc) { a.CPUWrite(p, RegionData, 0, mem.Zeros(4096)) })
	if b.winDirty[RegionData] != (extent{}) || !bytes.Equal(b.Inbound(RegionData)[:4096], make([]byte, 4096)) {
		t.Fatal("a covering zero landing left dirty bytes")
	}
	b.Restore(snap)
	if got := b.InboundPrefix(RegionData, 3000); !bytes.Equal(got, want) {
		t.Fatal("restore after a zero landing lost the captured bytes")
	}
	if !mem.ZeroSourceIntact() {
		t.Fatal("the zero source was written")
	}
}

// modes are the two ways a port moves a framed transfer: a DMA
// descriptor with a header prefix, and programmed I/O.
var modes = []struct {
	name string
	send func(p *sim.Proc, a *Port, r Region, off int, hdr, data []byte)
}{
	{"DMA", func(p *sim.Proc, a *Port, r Region, off int, hdr, data []byte) {
		a.DMA().SubmitWait(p, Desc{Region: r, Off: off, Hdr: hdr, Src: data, Bytes: len(data)})
	}},
	{"PIO", func(p *sim.Proc, a *Port, r Region, off int, hdr, data []byte) {
		a.CPUWriteHdr(p, r, off, hdr, data)
	}},
}

// pattern returns n bytes of a non-zero sequence starting at seed.
func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i%251) | 1
	}
	return b
}

func TestHeaderPrefixLandsByteExactAtOffset(t *testing.T) {
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			s, a, b, _ := pair(t)
			hdr, data := pattern(64, 7), pattern(10000, 90)
			const off = 1000
			run(t, s, func(p *sim.Proc) { m.send(p, a, RegionBypass, off, hdr, data) })
			win := b.Inbound(RegionBypass)
			if !bytes.Equal(win[off:off+64], hdr) || !bytes.Equal(win[off+64:off+64+10000], data) {
				t.Fatal("header or payload did not land byte-exact behind one another")
			}
			if !bytes.Equal(win[:off], make([]byte, off)) || win[off+64+10000] != 0 {
				t.Fatal("bytes outside the frame were written")
			}
			if d := b.winDirty[RegionBypass]; d != (extent{off, off + 64 + 10000}) {
				t.Fatalf("dirty extent %+v, want the frame", d)
			}
		})
	}
}

func TestHeaderPrefixedZeroPayloadDirtiesOnlyTheHeader(t *testing.T) {
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			s, a, b, _ := pair(t)
			hdr := pattern(64, 3)
			run(t, s, func(p *sim.Proc) { m.send(p, a, RegionData, 0, hdr, mem.Zeros(60000)) })
			if n := b.WindowResident(RegionData); n != minWindow {
				t.Fatalf("%d window bytes materialised, want only the header's %d", n, minWindow)
			}
			if d := b.winDirty[RegionData]; d != (extent{0, 64}) {
				t.Fatalf("dirty extent %+v, want the header alone", d)
			}
			if got := b.InboundPrefix(RegionData, 64); !bytes.Equal(got, hdr) {
				t.Fatal("header did not land")
			}
			// Over a slot a data payload dirtied, the zero payload clears
			// its bytes and trims the extent back to the header.
			run(t, s, func(p *sim.Proc) { m.send(p, a, RegionData, 0, hdr, pattern(5000, 1)) })
			run(t, s, func(p *sim.Proc) { m.send(p, a, RegionData, 0, hdr, mem.Zeros(5000)) })
			if d := b.winDirty[RegionData]; d != (extent{0, 64}) {
				t.Fatalf("dirty extent %+v after a zero payload over data, want the header alone", d)
			}
			if got := b.Inbound(RegionData)[64 : 64+5000]; !bytes.Equal(got, make([]byte, 5000)) {
				t.Fatal("a zero payload left stale data in its slot")
			}
			if !mem.ZeroSourceIntact() {
				t.Fatal("the zero source was written")
			}
		})
	}
}

func TestHeaderPrefixedTransferTimesAsOneFrame(t *testing.T) {
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			timed := func(hdr, data []byte) (took sim.Duration, traced int) {
				s, a, _, _ := pair(t)
				a.SetTrace(func(ev TraceEvent) { traced += ev.Bytes })
				run(t, s, func(p *sim.Proc) {
					start := p.Now()
					m.send(p, a, RegionData, 128, hdr, data)
					took = p.Now().Sub(start)
				})
				return took, traced
			}
			const n = 64 + 30000
			frameTook, frameTraced := timed(nil, pattern(n, 5))
			hdrTook, hdrTraced := timed(pattern(64, 9), pattern(n-64, 5))
			if hdrTook != frameTook || hdrTraced != frameTraced || hdrTraced != n {
				t.Fatalf("header+payload took %v tracing %d bytes; one %d-byte frame took %v tracing %d",
					hdrTook, hdrTraced, n, frameTook, frameTraced)
			}
		})
	}
}

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

// target is bare port p's default target behind window r: the flat
// buffer NewPort registered.
func target(p *Port, r Region) *mem.Buffer { return p.inbound[r].trans.(*mem.Buffer) }

// returnTargets returns both of bare port p's default targets to the lender.
func returnTargets(p *Port) {
	for r := range p.inbound {
		target(p, Region(r)).ReturnStorage()
	}
}

func TestWindowMaterialisesOnlyToHighestByteReached(t *testing.T) {
	s, a, b, par := pair(t)
	if target(b, RegionData).Resident() != 0 {
		t.Fatal("a fresh port's default target holds storage")
	}
	run(t, s, func(p *sim.Proc) { a.CPUWrite(p, RegionData, 0, []byte{1, 2, 3}) })
	if got := target(b, RegionData).Resident(); got != 4096 {
		t.Fatalf("a 3-byte write materialised %d bytes, want 4096", got)
	}
	// Power-of-two steps: a DMA descriptor ending at 40 000 takes 64 KiB.
	run(t, s, func(p *sim.Proc) {
		a.DMA().SubmitWait(p, Desc{Region: RegionData, Off: 39000, Src: bytes.Repeat([]byte{9}, 1000), Bytes: 1000})
	})
	if got := target(b, RegionData).Resident(); got != 1<<16 {
		t.Fatalf("a descriptor ending at 40000 materialised %d bytes, want %d", got, 1<<16)
	}
	if target(b, RegionBypass).Resident() != 0 {
		t.Fatal("the untouched bypass window was materialised")
	}
	// The earlier bytes moved with the growth step, and everything
	// between the two writes reads as zero.
	view := b.InboundRange(RegionData, 0, 40000)
	want := make([]byte, 40000)
	copy(want, []byte{1, 2, 3})
	copy(want[39000:], bytes.Repeat([]byte{9}, 1000))
	if !bytes.Equal(view, want) {
		t.Fatal("window contents wrong after a growth step")
	}
	// The last byte of the window caps growth at WindowSize.
	run(t, s, func(p *sim.Proc) { a.CPUWrite(p, RegionData, par.WindowSize-1, []byte{7}) })
	if got := target(b, RegionData).Resident(); got != par.WindowSize {
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
	if !bytes.Equal(b.InboundRange(RegionBypass, 0, 70000), low) || string(b.InboundRange(RegionBypass, 70000, 4)) != "high" {
		t.Fatal("full-window view wrong below or at the high write")
	}
	// A reader of a window nobody wrote sees zeros too.
	if !bytes.Equal(b.InboundRange(RegionData, 0, 512), make([]byte, 512)) {
		t.Fatal("never-written window reads nonzero")
	}
}

func TestOutgrownBlockGoesBackAtOnce(t *testing.T) {
	// A target that grows 4 KiB → 8 KiB → 64 KiB gives each block it
	// outgrows back to the lender as it grows, cleared where it was
	// written, and ReturnStorage gives back the last.
	s, a, b, _ := pair(t)
	run(t, s, func(p *sim.Proc) {
		a.CPUWrite(p, RegionBypass, 100, pattern(3000, 1))
		a.CPUWrite(p, RegionBypass, 5000, pattern(2000, 2))
		a.CPUWrite(p, RegionBypass, 60000, pattern(100, 3))
	})
	if got, held := target(b, RegionBypass).Resident(), mem.LenderHeld(); got != 1<<16 || held != 4096+8192 {
		t.Fatalf("the target holds %d bytes and the lender %d, want 64 KiB and the two outgrown blocks", got, held)
	}
	if !mem.LenderClean() {
		t.Fatal("an outgrown block went back to the lender with its bytes")
	}
	want := make([]byte, 60100)
	copy(want[100:], pattern(3000, 1))
	copy(want[5000:], pattern(2000, 2))
	copy(want[60000:], pattern(100, 3))
	if !bytes.Equal(b.InboundRange(RegionBypass, 0, 60100), want) {
		t.Fatal("the grown target lost bytes it carried over")
	}
	returnTargets(b)
	if held := mem.LenderHeld(); held != 4096+8192+1<<16 || !mem.LenderClean() {
		t.Fatalf("the lender holds %d bytes after ReturnStorage (clean: %v), want all three blocks cleared", held, mem.LenderClean())
	}
}

func TestReturnedPartIsRelentAndReadsZeroOutsideWhatLanded(t *testing.T) {
	// b's data target grows to a 32 KiB block under a 20 000-byte
	// transfer and gives it back dirty; c, another port, borrows that
	// very block for a 10-byte write ending past 4 KiB (the lender's 4 KiB
	// block, b's bypass target, is too small). Both windows read zeros
	// everywhere but where their own bytes landed.
	s, a, b, par := pair(t)
	s2, a2, c, _ := pair(t)
	run(t, s, func(p *sim.Proc) {
		a.CPUWrite(p, RegionData, 1000, pattern(20000, 1))
		a.CPUWrite(p, RegionBypass, 0, pattern(100, 2))
	})
	old := &b.InboundRange(RegionData, 0, 1)[0]
	if n := target(b, RegionData).Resident(); n != 1<<15 {
		t.Fatalf("test setup: target at %d bytes", n)
	}
	returnTargets(b)
	if n := target(b, RegionData).Resident() + target(b, RegionBypass).Resident(); n != 0 || mem.LenderHeld() != 1<<15+4096 {
		t.Fatalf("after ReturnStorage the port's targets hold %d bytes and the lender %d", n, mem.LenderHeld())
	}
	if !mem.LenderClean() {
		t.Fatal("a block went back to the lender with its bytes")
	}
	run(t, s2, func(p *sim.Proc) { a2.CPUWrite(p, RegionData, 5000, pattern(10, 3)) })
	if n := target(c, RegionData).Resident(); n != 1<<15 || &c.InboundRange(RegionData, 0, 1)[0] != old {
		t.Fatalf("c materialised %d bytes, not b's returned block", n)
	}
	wantC := make([]byte, par.WindowSize)
	copy(wantC[5000:], pattern(10, 3))
	if !bytes.Equal(c.InboundRange(RegionData, 0, par.WindowSize), wantC) {
		t.Fatal("the re-lent block reads stale bytes outside what landed")
	}
	run(t, s, func(p *sim.Proc) { a.CPUWrite(p, RegionData, 30000, pattern(8, 4)) })
	wantB := make([]byte, par.WindowSize)
	copy(wantB[30000:], pattern(8, 4))
	if !bytes.Equal(b.InboundRange(RegionData, 0, par.WindowSize), wantB) ||
		!bytes.Equal(b.InboundRange(RegionBypass, 0, 4096), make([]byte, 4096)) {
		t.Fatal("b's windows read stale bytes after giving their storage back")
	}
}

func TestRebuiltPartTakesAReturnedBlockWhole(t *testing.T) {
	// A 3-byte write after a 512 KiB block went back materialises the
	// whole returned block instead of stepping up from 4 KiB.
	s, a, b, _ := pair(t)
	run(t, s, func(p *sim.Proc) { a.CPUWrite(p, RegionData, 300000, []byte("far")) })
	returnTargets(b)
	run(t, s, func(p *sim.Proc) { a.CPUWrite(p, RegionData, 0, []byte{1, 2, 3}) })
	if got := target(b, RegionData).Resident(); got != 1<<19 || mem.LenderHeld() != 0 {
		t.Fatalf("the rebuilt target holds %d bytes and the lender %d, want the returned 512 KiB block in the target",
			got, mem.LenderHeld())
	}
	if !bytes.Equal(b.InboundRange(RegionData, 0, 1<<19), append([]byte{1, 2, 3}, make([]byte, 1<<19-3)...)) {
		t.Fatal("the rebuilt target reads stale bytes")
	}
}

func TestWindowSnapshotRestoreAcrossGrowthStep(t *testing.T) {
	// A port's image is its registers: the memory its windows translate
	// onto is the receiver's. Captured before a growth step and restored
	// after it, the port's registers go back but the window still reads
	// both landings from the grown block; restored into a fresh port,
	// the image materialises nothing.
	s0, a0, b0, par := pair(t)
	run(t, s0, func(p *sim.Proc) {
		a0.CPUWrite(p, RegionData, 100, []byte("small"))
		a0.PeerSpadWrite(p, 2, 7)
	})
	small := b0.Snapshot()
	run(t, s0, func(p *sim.Proc) {
		a0.CPUWrite(p, RegionData, 300000, []byte("grown"))
		a0.PeerSpadWrite(p, 2, 9)
	})
	if b0.Snapshot().spads[2] != 9 || target(b0, RegionData).Resident() != 1<<19 {
		t.Fatal("test setup: no growth step or no register write")
	}
	b0.Restore(small)
	full := make([]byte, par.WindowSize)
	copy(full[100:], "small")
	copy(full[300000:], "grown")
	if b0.spads[2] != 7 || !bytes.Equal(b0.InboundRange(RegionData, 0, par.WindowSize), full) {
		t.Fatal("restore did not bring the registers back, or touched the window's memory")
	}
	_, _, fresh, _ := pair(t)
	fresh.Restore(small)
	if fresh.spads[2] != 7 || target(fresh, RegionData).Resident() != 0 {
		t.Fatal("restore into a fresh port lost the registers or materialised window storage")
	}
}

func TestWindowRangedReadAliasesTheStore(t *testing.T) {
	// A ranged read of bytes a transfer landed is the target's own
	// store, so a receiver's in-place edit (a pipelined receiver clearing
	// a slot's valid byte) reaches the window, and a later landing that
	// stays within the block never moves it.
	s, a, b, _ := pair(t)
	run(t, s, func(p *sim.Proc) { a.CPUWrite(p, RegionData, 64, []byte("slot0")) })
	hdr := b.InboundRange(RegionData, 64, 5)
	if string(hdr) != "slot0" || mem.IsZeroSource(hdr) {
		t.Fatalf("ranged read of a landed range holds %q", hdr)
	}
	run(t, s, func(p *sim.Proc) { a.CPUWrite(p, RegionData, 2048, pattern(2048, 1)) })
	hdr[0] = 0 // the receiver's in-place edit is visible to the port
	if got := b.InboundRange(RegionData, 64, 5); got[0] != 0 || string(got[1:]) != "lot0" {
		t.Fatalf("a second ranged read holds %q: the store moved", got)
	}
}

func TestZeroLandingMaterialisesAndDirtiesNothing(t *testing.T) {
	// Zero transfers — the zero source by DMA and by PIO, at any offset
	// into it and into the window — reach a clean window without giving
	// its target storage, and a receiver's prefix of it is the zero
	// source. Time and trace bytes are a copy's.
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
		if n := target(b, r).Resident(); n != 0 {
			t.Fatalf("%v window: %d bytes materialised", r, n)
		}
	}
	if got := b.InboundRange(RegionData, 0, 50100); !mem.IsZeroSource(got) || len(got) != 50100 {
		t.Fatal("a clean window's prefix is not the zero source")
	}
}

func TestZeroLandingClearsOnlyTheDirtyOverlap(t *testing.T) {
	s, a, b, _ := pair(t)
	data := bytes.Repeat([]byte{0xAB}, 3000)
	run(t, s, func(p *sim.Proc) { a.CPUWrite(p, RegionData, 0, data) })
	// A zero chunk inside what landed clears in place.
	run(t, s, func(p *sim.Proc) { a.CPUWrite(p, RegionData, 0, mem.Zeros(1000)) })
	want := append(make([]byte, 1000), data[1000:]...)
	if got := b.InboundRange(RegionData, 0, 3000); !bytes.Equal(got, want) {
		t.Fatal("window bytes wrong after a zero head landing")
	}
	run(t, s, func(p *sim.Proc) { a.CPUWrite(p, RegionData, 1500, mem.Zeros(500)) })
	clear(want[1500:2000])
	if got := b.InboundRange(RegionData, 0, 3000); !bytes.Equal(got, want) {
		t.Fatal("window bytes wrong after an inner zero landing")
	}
	// One covering the tail of what landed gives the tail up: the bytes
	// from its offset on read as the zero source again.
	run(t, s, func(p *sim.Proc) { a.CPUWrite(p, RegionData, 2000, mem.Zeros(4096)) })
	clear(want[2000:])
	if !mem.IsZeroSource(b.InboundRange(RegionData, 2000, 1000)) {
		t.Fatal("a zero tail landing left the tail held")
	}
	if got := b.InboundRange(RegionData, 0, 3000); !bytes.Equal(got, want) {
		t.Fatal("window bytes wrong after a zero tail landing")
	}
	returnTargets(b)
	if !mem.LenderClean() || !mem.ZeroSourceIntact() {
		t.Fatal("a zero landing left a dirty byte behind, or the zero source was written")
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
			view := b.InboundRange(RegionBypass, 0, off+64+10000+1)
			if !bytes.Equal(view[off:off+64], hdr) || !bytes.Equal(view[off+64:off+64+10000], data) {
				t.Fatal("header or payload did not land byte-exact behind one another")
			}
			if !bytes.Equal(view[:off], make([]byte, off)) || view[off+64+10000] != 0 {
				t.Fatal("bytes outside the frame were written")
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
			if n := target(b, RegionData).Resident(); n != 4096 {
				t.Fatalf("%d window bytes materialised, want only the header's 4096", n)
			}
			if got := b.InboundRange(RegionData, 0, 64); !bytes.Equal(got, hdr) {
				t.Fatal("header did not land")
			}
			if !mem.IsZeroSource(b.InboundRange(RegionData, 64, 60000)) {
				t.Fatal("the zero payload behind the header is held")
			}
			// Over a slot a data payload dirtied, the zero payload clears
			// its bytes and leaves only the header held.
			run(t, s, func(p *sim.Proc) { m.send(p, a, RegionData, 0, hdr, pattern(5000, 1)) })
			run(t, s, func(p *sim.Proc) { m.send(p, a, RegionData, 0, hdr, mem.Zeros(5000)) })
			if got := b.InboundRange(RegionData, 64, 5000); !mem.IsZeroSource(got) {
				t.Fatal("a zero payload over data is not read as the zero source")
			}
			returnTargets(b)
			if !mem.LenderClean() {
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

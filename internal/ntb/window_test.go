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
	if b.WindowResident(RegionData) != 0 {
		t.Fatal("a fresh port holds window storage")
	}
	run(t, s, func(p *sim.Proc) { a.CPUWrite(p, RegionData, 0, []byte{1, 2, 3}) })
	if got := b.WindowResident(RegionData); got != minWindow {
		t.Fatalf("a 3-byte write materialised %d bytes, want %d", got, minWindow)
	}
	// Power-of-two steps: a DMA descriptor ending at 40 000 takes 64 KiB.
	run(t, s, func(p *sim.Proc) {
		a.DMA().SubmitWait(p, Desc{Region: RegionData, Off: 39000, Src: bytes.Repeat([]byte{9}, 1000), Bytes: 1000})
	})
	if got := b.WindowResident(RegionData); got != 1<<16 {
		t.Fatalf("a descriptor ending at 40000 materialised %d bytes, want %d", got, 1<<16)
	}
	if b.WindowResident(RegionBypass) != 0 {
		t.Fatal("the untouched bypass window was materialised")
	}
	// The earlier bytes moved with the growth step, and everything
	// between the two writes reads as zero.
	win := b.InboundRange(RegionData, 0, 40000)
	want := make([]byte, 40000)
	copy(want, []byte{1, 2, 3})
	copy(want[39000:], bytes.Repeat([]byte{9}, 1000))
	if !bytes.Equal(win, want) {
		t.Fatal("window contents wrong after a growth step")
	}
	// The last byte of the window caps growth at WindowSize.
	run(t, s, func(p *sim.Proc) { a.CPUWrite(p, RegionData, par.WindowSize-1, []byte{7}) })
	if got := b.WindowResident(RegionData); got != par.WindowSize {
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

func TestWindowPayloadAliasSurvivesLaterLargerWrite(t *testing.T) {
	// A service thread takes its alias of a small message's payload; a
	// later, larger message makes the window grow. The alias must go on
	// reading the bytes it was taken for, and the window must hold the
	// new message.
	s, a, b, _ := pair(t)
	small := bytes.Repeat([]byte{0x5A}, 3000)
	run(t, s, func(p *sim.Proc) { a.CPUWrite(p, RegionData, 0, small) })
	alias := b.InboundRange(RegionData, 0, len(small))
	large := bytes.Repeat([]byte{0xC3}, 200000)
	run(t, s, func(p *sim.Proc) {
		a.DMA().SubmitWait(p, Desc{Region: RegionData, Off: 4096, Src: large, Bytes: len(large)})
	})
	if !bytes.Equal(alias, small) {
		t.Fatal("an alias taken before a growth step lost its bytes")
	}
	now := b.InboundRange(RegionData, 0, 4096+len(large))
	if !bytes.Equal(now[:len(small)], small) || !bytes.Equal(now[4096:], large) {
		t.Fatal("window contents wrong after growth")
	}
}

func TestReturnedPartIsRelentAndReadsZeroOutsideWhatLanded(t *testing.T) {
	// b's data window grows to a 32 KiB part under a 20 000-byte
	// transfer and gives it back dirty; c, another port, borrows that
	// very block for a 10-byte write ending past 4 KiB (the lender's 4 KiB
	// block, b's bypass part, is too small). Both windows read zeros
	// everywhere but where their own bytes landed.
	s, a, b, par := pair(t)
	s2, a2, c, _ := pair(t)
	run(t, s, func(p *sim.Proc) {
		a.CPUWrite(p, RegionData, 1000, pattern(20000, 1))
		a.CPUWrite(p, RegionBypass, 0, pattern(100, 2))
	})
	old := b.inbound[RegionData].parts[0]
	if len(old) != 1<<15 {
		t.Fatalf("test setup: part at %d bytes", len(old))
	}
	b.ReturnStorage()
	if n := b.WindowResident(RegionData) + b.WindowResident(RegionBypass); n != 0 || mem.LenderHeld() != 1<<15+minWindow {
		t.Fatalf("after ReturnStorage the port holds %d bytes and the lender %d", n, mem.LenderHeld())
	}
	if !mem.LenderClean() {
		t.Fatal("a part went back to the lender with its bytes")
	}
	run(t, s2, func(p *sim.Proc) { a2.CPUWrite(p, RegionData, 5000, pattern(10, 3)) })
	if part := c.inbound[RegionData].parts[0]; len(part) != 1<<15 || &part[0] != &old[0] {
		t.Fatalf("c materialised %d bytes, not b's returned part", len(part))
	}
	wantC := make([]byte, par.WindowSize)
	copy(wantC[5000:], pattern(10, 3))
	if !bytes.Equal(c.InboundRange(RegionData, 0, par.WindowSize), wantC) {
		t.Fatal("the re-lent part reads stale bytes outside what landed")
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
	// A 3-byte write after a 512 KiB part went back materialises the
	// whole returned block instead of stepping up from 4 KiB.
	s, a, b, _ := pair(t)
	run(t, s, func(p *sim.Proc) { a.CPUWrite(p, RegionData, 300000, []byte("far")) })
	b.ReturnStorage()
	run(t, s, func(p *sim.Proc) { a.CPUWrite(p, RegionData, 0, []byte{1, 2, 3}) })
	if got := b.WindowResident(RegionData); got != 1<<19 || mem.LenderHeld() != 0 {
		t.Fatalf("the rebuilt part holds %d bytes and the lender %d, want the returned 512 KiB block in the part",
			got, mem.LenderHeld())
	}
	if !bytes.Equal(b.InboundRange(RegionData, 0, 1<<19), append([]byte{1, 2, 3}, make([]byte, 1<<19-3)...)) {
		t.Fatal("the rebuilt part reads stale bytes")
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
	if b0.WindowResident(RegionData) != 1<<19 {
		t.Fatalf("test setup: window at %d bytes", b0.WindowResident(RegionData))
	}

	b0.Restore(small)
	want := make([]byte, 1<<19)
	copy(want[100:], "small")
	if !bytes.Equal(b0.inbound[RegionData].parts[0], want) {
		t.Fatal("restore of the small image over a grown window left stale bytes")
	}

	_, _, fresh, par := pair(t)
	fresh.Restore(grown)
	if got := fresh.WindowResident(RegionData); got != 1<<19 {
		t.Fatalf("restore of the grown image materialised %d bytes, want %d", got, 1<<19)
	}
	full := make([]byte, par.WindowSize)
	copy(full[100:], "small")
	copy(full[300000:], "grown")
	if !bytes.Equal(fresh.InboundRange(RegionData, 0, par.WindowSize), full) {
		t.Fatal("restored window differs from the captured one")
	}
	b0.Restore(grown)
	if !bytes.Equal(b0.InboundRange(RegionData, 0, par.WindowSize), full) {
		t.Fatal("re-restore of the grown image over the small one differs")
	}
}

func TestWindowRangedReadAliasesTheStore(t *testing.T) {
	// The pipelined receiver's contract: a ranged read of a slot a
	// transfer landed in is the part's own store, so the receiver's
	// in-place edit reaches the port, and a transfer landing in another
	// part, however large, never moves it.
	s, a, b, par := pair(t)
	b.Partition(RegionData, 4)
	slot := par.WindowSize / 4
	run(t, s, func(p *sim.Proc) { a.CPUWrite(p, RegionData, 64, []byte("slot0")) })
	hdr := b.InboundRange(RegionData, 64, 5)
	if string(hdr) != "slot0" || mem.IsZeroSource(hdr) {
		t.Fatalf("ranged read of a landed slot holds %q", hdr)
	}
	run(t, s, func(p *sim.Proc) { a.CPUWrite(p, RegionData, 3*slot, pattern(slot, 1)) })
	hdr[0] = 0 // the receiver's in-place edit is visible to the port
	if got := b.InboundRange(RegionData, 64, 5); got[0] != 0 || string(got[1:]) != "lot0" {
		t.Fatalf("a second ranged read holds %q: the store moved", got)
	}
}

// slotRing is a port pair whose receiver b divides its data window into
// eight slots, with a framed transfer landed in slots 0 and 5: a 64-byte
// header and 1000 bytes by PIO, a header and 10 000 bytes by DMA.
func slotRing(t *testing.T) (s *sim.Simulator, a, b *Port, slot int) {
	t.Helper()
	s, a, b, par := pair(t)
	b.Partition(RegionData, 8)
	slot = par.WindowSize / 8
	run(t, s, func(p *sim.Proc) {
		a.CPUWriteHdr(p, RegionData, 0, pattern(64, 1), pattern(1000, 2))
		a.DMA().SubmitWait(p, Desc{Region: RegionData, Off: 5 * slot, Hdr: pattern(64, 3), Src: pattern(10000, 4), Bytes: 10000})
	})
	return s, a, b, slot
}

func TestPartitionedWindowMaterialisesOnlyLandedParts(t *testing.T) {
	// Polling every header of an idle ring reads the zero source and
	// materialises nothing.
	_, _, idle, par := pair(t)
	idle.Partition(RegionData, 8)
	for i := 0; i < 8; i++ {
		if h := idle.InboundRange(RegionData, i*par.WindowSize/8, 64); !mem.IsZeroSource(h) {
			t.Fatalf("slot %d's header on an idle ring is not the zero source", i)
		}
	}
	if n := idle.WindowResident(RegionData); n != 0 {
		t.Fatalf("polling an idle ring materialised %d bytes", n)
	}

	// After transfers to slots 0 and 5, exactly those two parts hold
	// storage, each demand-sized to its transfer, although the dirty
	// extent spans slots 1 to 4 too.
	_, _, b, slot := slotRing(t)
	if got, want := b.WindowResident(RegionData), minWindow+1<<14; got != want {
		t.Fatalf("%d window bytes materialised, want %d (a 4 KiB and a 16 KiB part)", got, want)
	}
	for i, s := range b.inbound[RegionData].parts {
		if (i == 0 || i == 5) != (len(s) > 0) {
			t.Fatalf("part %d holds %d bytes", i, len(s))
		}
	}
	if !mem.IsZeroSource(b.InboundRange(RegionData, 3*slot, 64)) {
		t.Fatal("an unlanded slot inside the dirty extent is not read as the zero source")
	}
	if !bytes.Equal(b.InboundRange(RegionData, 0, 64+1000), append(pattern(64, 1), pattern(1000, 2)...)) ||
		!bytes.Equal(b.InboundRange(RegionData, 5*slot+64, 10000), pattern(10000, 4)) {
		t.Fatal("a slot's bytes did not land")
	}
}

func TestPartitionedSnapshotCopiesOnlyDirtySlots(t *testing.T) {
	_, _, b, slot := slotRing(t)
	snap := b.Snapshot()
	// The image holds the two slots' stored bytes inside the extent, not
	// the 640 KiB between them.
	captured := 0
	for _, r := range snap.win[RegionData] {
		captured += len(r.bytes)
	}
	if len(snap.win[RegionData]) != 2 || captured != minWindow+64+10000 {
		t.Fatalf("snapshot captured %d runs of %d bytes, want 2 of %d", len(snap.win[RegionData]), captured, minWindow+64+10000)
	}

	// Restored over a fresh ring and over one whose run dirtied other
	// slots and rewrote slot 5, both equal the captured port byte for
	// byte and hold storage only where a run restored some.
	_, _, fresh, _ := pair(t)
	fresh.Partition(RegionData, 8)
	fresh.Restore(snap)
	s1, a1, dirty, _ := slotRing(t)
	run(t, s1, func(p *sim.Proc) {
		a1.CPUWrite(p, RegionData, 2*slot, pattern(3000, 5))
		a1.CPUWrite(p, RegionData, 5*slot, pattern(slot, 6))
		a1.CPUWrite(p, RegionData, 7*slot+100, pattern(500, 7))
	})
	dirty.Restore(snap)
	want := imageOf(b)
	for name, got := range map[string]*Port{"fresh": fresh, "dirty": dirty} {
		img := imageOf(got)
		if img.portState != want.portState || !bytes.Equal(img.win[RegionData], want.win[RegionData]) {
			t.Fatalf("restore over a %s ring differs from the captured port", name)
		}
	}
	if n := fresh.WindowResident(RegionData); n != minWindow+1<<14 {
		t.Fatalf("restore into a fresh ring materialised %d bytes, want the two slots' %d", n, minWindow+1<<14)
	}
}

func TestTransferCrossingPartPanics(t *testing.T) {
	s, a, b, par := pair(t)
	b.Partition(RegionData, 3) // 349 525-byte parts and a 1-byte remainder
	slot := par.WindowSize / 3
	for name, op := range map[string]func(p *sim.Proc){
		"PIO":    func(p *sim.Proc) { a.CPUWrite(p, RegionData, slot-10, make([]byte, 20)) },
		"header": func(p *sim.Proc) { a.CPUWriteHdr(p, RegionData, slot-32, make([]byte, 64), nil) },
		"DMA": func(p *sim.Proc) {
			a.DMA().SubmitWait(p, Desc{Region: RegionData, Off: 2*slot - 64, Hdr: make([]byte, 64), Src: []byte{1}, Bytes: 1})
		},
		"remainder":   func(p *sim.Proc) { a.CPUWrite(p, RegionData, par.WindowSize-1, []byte{1}) },
		"CPURead":     func(p *sim.Proc) { a.CPURead(p, RegionData, slot-1, make([]byte, 2)) },
		"ranged read": func(*sim.Proc) { b.InboundRange(RegionData, 2*slot-1, 2) },
	} {
		run(t, s, func(p *sim.Proc) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s across a part boundary did not panic", name)
				}
			}()
			op(p)
		})
	}
	if n := b.WindowResident(RegionData); n != 0 {
		t.Fatalf("refused transfers materialised %d bytes", n)
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
	if got := b.InboundRange(RegionData, 0, 50100); !mem.IsZeroSource(got) || len(got) != 50100 {
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
	if !mem.IsZeroSource(b.InboundRange(RegionData, 0, 1000)) {
		t.Fatal("the cleared head is not served as the zero source")
	}
	want := append(make([]byte, 1000), data[1000:]...)
	if got := b.InboundRange(RegionData, 0, 3000); !bytes.Equal(got, want) {
		t.Fatal("window bytes wrong after a zero head landing")
	}
	// A zero chunk inside the extent clears in place and keeps it.
	run(t, s, func(p *sim.Proc) { a.CPUWrite(p, RegionData, 1500, mem.Zeros(500)) })
	clear(want[1500:2000])
	if got := b.InboundRange(RegionData, 0, 3000); !bytes.Equal(got, want) || b.winDirty[RegionData] != (extent{1000, 3000}) {
		t.Fatalf("inner zero landing: bytes right %v, dirty %+v", bytes.Equal(got, want), b.winDirty[RegionData])
	}
	// One covering the whole extent leaves the window clean, and a
	// restore from a dirty image still rezeroes what it must.
	snap := b.Snapshot()
	run(t, s, func(p *sim.Proc) { a.CPUWrite(p, RegionData, 0, mem.Zeros(4096)) })
	if b.winDirty[RegionData] != (extent{}) || !bytes.Equal(b.InboundRange(RegionData, 0, 4096), make([]byte, 4096)) {
		t.Fatal("a covering zero landing left dirty bytes")
	}
	b.Restore(snap)
	if got := b.InboundRange(RegionData, 0, 3000); !bytes.Equal(got, want) {
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
			win := b.InboundRange(RegionBypass, 0, off+64+10000+1)
			if !bytes.Equal(win[off:off+64], hdr) || !bytes.Equal(win[off+64:off+64+10000], data) {
				t.Fatal("header or payload did not land byte-exact behind one another")
			}
			if !bytes.Equal(win[:off], make([]byte, off)) || win[off+64+10000] != 0 {
				t.Fatal("bytes outside the frame were written")
			}
			if d := b.winDirty[RegionBypass]; d != span(off, 64+10000) {
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
			if got := b.InboundRange(RegionData, 0, 64); !bytes.Equal(got, hdr) {
				t.Fatal("header did not land")
			}
			// Over a slot a data payload dirtied, the zero payload clears
			// its bytes and trims the extent back to the header.
			run(t, s, func(p *sim.Proc) { m.send(p, a, RegionData, 0, hdr, pattern(5000, 1)) })
			run(t, s, func(p *sim.Proc) { m.send(p, a, RegionData, 0, hdr, mem.Zeros(5000)) })
			if d := b.winDirty[RegionData]; d != (extent{0, 64}) {
				t.Fatalf("dirty extent %+v after a zero payload over data, want the header alone", d)
			}
			if got := b.InboundRange(RegionData, 64, 5000); !bytes.Equal(got, make([]byte, 5000)) {
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

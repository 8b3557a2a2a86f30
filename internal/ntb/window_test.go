package ntb

import (
	"bytes"
	"testing"

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

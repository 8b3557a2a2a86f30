package ntb

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/sim"
)

// portImage is everything Restore is answerable for: the state struct,
// the scratchpads, and the full logical contents of every window (bytes
// past the materialised prefix read as zeros), plus how far each window
// is materialised.
type portImage struct {
	portState
	spads        []uint32
	win          [numRegions][]byte
	materialised [numRegions]int
}

func imageOf(p *Port) portImage {
	img := portImage{portState: p.portState, spads: append([]uint32(nil), p.spads...)}
	for r, w := range p.inbound {
		img.win[r] = make([]byte, p.par.WindowSize)
		for i, s := range w.parts {
			copy(img.win[r][i*w.partBytes:], s)
		}
		img.materialised[r] = p.WindowResident(Region(r))
	}
	return img
}

// scribble drives writes from a into b's windows and registers: n bytes
// of fill at off in the data window (and, when bypass is set, the bypass
// window too), two scratchpads and a masked doorbell.
func scribble(t *testing.T, s *sim.Simulator, a, b *Port, off, n int, fill byte, bypass bool) {
	t.Helper()
	s.Go("scribble", func(p *sim.Proc) {
		a.CPUWrite(p, RegionData, off, bytes.Repeat([]byte{fill}, n))
		if bypass {
			a.CPUWrite(p, RegionBypass, off/2, bytes.Repeat([]byte{fill + 1}, n))
		}
		a.PeerSpadWrite(p, 1, uint32(fill)<<8|1)
		a.PeerSpadWrite(p, 5, uint32(fill)<<8|5)
		b.DBSetMask(p, 1<<3)
		a.PeerDBSet(p, 1<<3)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreOverDirtyPortEqualsRestoreOfFresh(t *testing.T) {
	// Capture a port with a small residue in its data window.
	s0, a0, b0, _ := pair(t)
	scribble(t, s0, a0, b0, 4096, 256, 0x11, false)
	snap := b0.Snapshot()

	// A port whose previous run dirtied a larger, overlapping extent of
	// the data window and a second window the snapshot never touched.
	s1, a1, dirty, _ := pair(t)
	scribble(t, s1, a1, dirty, 1024, 16384, 0xEE, true)
	if d := dirty.winDirty[RegionData]; d.lo >= snap.winDirty[RegionData].lo || d.hi <= snap.winDirty[RegionData].hi {
		t.Fatalf("test setup: dirty extent %+v does not enclose the snapshot's %+v", d, snap.winDirty[RegionData])
	}
	if dirty.portState == b0.portState {
		t.Fatal("test setup: the dirty port's registers equal the captured ones")
	}
	dirty.Restore(snap)

	_, _, fresh, _ := pair(t)
	fresh.Restore(snap)

	got, want := imageOf(dirty), imageOf(fresh)
	if got.portState != want.portState || got.portState != b0.portState {
		t.Fatalf("state: dirty-restored %+v, fresh-restored %+v, captured %+v", got.portState, want.portState, b0.portState)
	}
	if !slices.Equal(got.spads, want.spads) {
		t.Fatalf("scratchpads: dirty-restored %#x, fresh-restored %#x", got.spads, want.spads)
	}
	if !bytes.Equal(got.win[RegionData], want.win[RegionData]) {
		t.Fatal("data window differs: stale bytes of the previous run survived Restore")
	}
	// The snapshot never touched the bypass window: the fresh port has
	// not materialised it, and the recycled one must read all-zero.
	if want.materialised[RegionBypass] != 0 {
		t.Fatal("Restore materialised a window the snapshot never touched")
	}
	if !bytes.Equal(got.win[RegionBypass], want.win[RegionBypass]) {
		t.Fatal("bypass window holds stale bytes after Restore")
	}
	// And the source of the snapshot is equal to both.
	if src := imageOf(b0); !bytes.Equal(src.win[RegionData], got.win[RegionData]) || src.portState != got.portState {
		t.Fatal("restored port differs from the port the snapshot was taken of")
	}
}

func TestSnapshotOfFreshPortMaterialisesNothing(t *testing.T) {
	_, _, b, _ := pair(t)
	snap := b.Snapshot()
	b.Restore(snap)
	for r := range b.inbound {
		if b.WindowResident(Region(r)) != 0 || snap.win[r] != nil {
			t.Fatalf("region %v materialised by a power-on Snapshot/Restore", Region(r))
		}
	}
}

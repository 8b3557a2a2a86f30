package ntb

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/sim"
)

// portImage is everything Restore is answerable for: the state struct
// and the scratchpads.
type portImage struct {
	portState
	spads []uint32
}

func imageOf(p *Port) portImage {
	return portImage{portState: p.portState, spads: append([]uint32(nil), p.spads...)}
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
	// Capture a port after a small landing and some register writes.
	s0, a0, b0, _ := pair(t)
	scribble(t, s0, a0, b0, 4096, 256, 0x11, false)
	snap := b0.Snapshot()

	// A port whose previous run wrote other registers and landed more,
	// in both windows.
	s1, a1, dirty, _ := pair(t)
	scribble(t, s1, a1, dirty, 1024, 16384, 0xEE, true)
	if dirty.portState == b0.portState && slices.Equal(dirty.spads, b0.spads) {
		t.Fatal("test setup: the dirty port's registers equal the captured ones")
	}
	landed := bytes.Clone(dirty.InboundRange(RegionBypass, 0, 20000))
	dirty.Restore(snap)

	_, _, fresh, _ := pair(t)
	fresh.Restore(snap)

	got, want := imageOf(dirty), imageOf(fresh)
	if got.portState != want.portState || got.portState != b0.portState {
		t.Fatalf("state: dirty-restored %+v, fresh-restored %+v, captured %+v", got.portState, want.portState, b0.portState)
	}
	if !slices.Equal(got.spads, want.spads) || !slices.Equal(got.spads, b0.spads) {
		t.Fatalf("scratchpads: dirty-restored %#x, fresh-restored %#x", got.spads, want.spads)
	}
	// The windows' memory is the receiver's: Restore neither copies bytes
	// into it nor clears it.
	if !bytes.Equal(dirty.InboundRange(RegionBypass, 0, 20000), landed) {
		t.Fatal("Restore changed the memory a window translates onto")
	}
	if target(fresh, RegionData).Resident() != 0 {
		t.Fatal("Restore materialised window storage")
	}
}

func TestSnapshotOfFreshPortMaterialisesNothing(t *testing.T) {
	_, _, b, _ := pair(t)
	snap := b.Snapshot()
	b.Restore(snap)
	for r := range b.inbound {
		if target(b, Region(r)).Resident() != 0 {
			t.Fatalf("region %v materialised by a power-on Snapshot/Restore", Region(r))
		}
	}
	if snap.portState != (portState{}) || slices.ContainsFunc(snap.spads, func(v uint32) bool { return v != 0 }) {
		t.Fatalf("a fresh port's image is not power-on: %+v", *snap)
	}
}

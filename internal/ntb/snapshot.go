package ntb

import "bytes"

// PortSnapshot is a frozen image of a port's guest-visible device state:
// the scratchpad file, doorbell status and mask registers, and the dirty
// extent and reclaimed bracket of each inbound memory window. Window
// bytes are copied at capture time rather than shared copy-on-write like
// the heap's pages: after a quiescent prefix the dirty residue is small
// protocol state (pipelined slot headers; a stop-and-wait link lends its
// chunks and leaves none), not bulk payload, and each part of a window
// is demand-sized to the largest transfer it has seen, so there is
// little to share. The DMA engine must be idle and no window lent at
// capture, so neither its queue nor a loan needs an image.
type PortSnapshot struct {
	portState
	spads []uint32
	win   [numRegions][]windowRun // the storage inside each dirty extent, part by part, captured copies
}

// windowRun is a captured stretch of window bytes at window offset off.
type windowRun struct {
	off   int
	bytes []byte
}

// Snapshot captures the port's register surface and window residue: the
// stored bytes inside each dirty extent, part by part, so a ring that
// used slots 0 and 5 copies those two slots and nothing between them.
func (p *Port) Snapshot() *PortSnapshot {
	p.dma.assertIdle("snapshot")
	p.assertNoLoans("snapshot")
	s := &PortSnapshot{portState: p.portState, spads: append([]uint32(nil), p.spads...)}
	for r := range p.inbound {
		for off, b := range p.inbound[r].dirtyRuns(p.winDirty[r]) {
			s.win[r] = append(s.win[r], windowRun{off, bytes.Clone(b)})
		}
	}
	return s
}

// Restore brings the port, whatever its previous run left, to the
// snapshot's state: its window storage goes back to the mem lender
// (ReturnStorage), the register surface is replaced and the captured
// runs are copied in (the rest of the window is zero, as it was when
// the snapshot was taken). A part is materialised only as far as a
// captured run reaches, so one the snapshot never touched is not at all.
// The LUT is intentionally not part of the snapshot: boot reprograms it
// with the same entries and no window transaction precedes boot, so an
// already-enforced LUT admits exactly what a not-yet-enforced one would.
// The ISR registration and the DMA engine (which must be idle; its
// process, once started, stays parked) survive as well.
func (p *Port) Restore(s *PortSnapshot) {
	p.ReturnStorage()
	p.portState = s.portState
	copy(p.spads, s.spads)
	for r := range p.inbound {
		w := &p.inbound[r]
		for _, run := range s.win[r] {
			i, base := w.part(run.off, len(run.bytes))
			copy(w.grow(i, run.off-base+len(run.bytes))[run.off-base:], run.bytes)
		}
	}
}

// ReturnStorage rezeroes the bytes inside each window's dirty extent and
// gives every window part back to the mem lender: the windows read as
// zeros and hold no storage, and the registers are left as they are. It
// is the first half of Restore, which a pooled world runs early, at
// check-in, so that an idle port parks no window bytes. The DMA engine
// must be idle and no window lent; a reclaimed bracket is dropped with
// the storage, since the window then reads as zeros.
func (p *Port) ReturnStorage() {
	p.dma.assertIdle("storage return")
	p.assertNoLoans("storage return")
	for r := range p.inbound {
		p.inbound[r].giveBack(p.winDirty[r])
		p.winDirty[r], p.winStale[r] = extent{}, extent{}
	}
}

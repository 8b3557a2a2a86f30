package ntb

// PortSnapshot is a frozen image of a port's guest-visible device state:
// the scratchpad file, doorbell status and mask registers, and the dirty
// extent of each inbound memory window. Window bytes are copied at
// capture time rather than shared copy-on-write like the heap's pages:
// after a quiescent prefix the dirty residue is small protocol state
// (pipelined slot headers, the last chunk a stop-and-wait link carried),
// not bulk payload, and a window is demand-sized to the largest transfer
// it has seen, so there is little to share. The DMA engine must be idle
// at capture, so its queue needs no image.
type PortSnapshot struct {
	portState
	spads []uint32
	win   [numRegions][]byte // dirty-extent contents, captured copies
}

// Snapshot captures the port's register surface and window residue.
func (p *Port) Snapshot() *PortSnapshot {
	p.dma.assertIdle("snapshot")
	s := &PortSnapshot{portState: p.portState, spads: append([]uint32(nil), p.spads...)}
	for r, d := range p.winDirty {
		if d.hi > d.lo {
			s.win[r] = append([]byte(nil), p.inbound[r][d.lo:d.hi]...)
		}
	}
	return s
}

// Restore brings the port, whatever its previous run left, to the
// snapshot's state: the register surface is replaced, each window's old
// dirty extent is rezeroed and the captured one copied in (the rest of
// the window is zero, as it was when the snapshot was taken). No storage
// is released; a window is materialised only as far as the captured
// extent reaches, so one the snapshot never touched is not at all.
// The LUT is intentionally not part of the snapshot: boot reprograms it
// with the same entries and no window transaction precedes boot, so an
// already-enforced LUT admits exactly what a not-yet-enforced one
// would. The ISR registration and the DMA engine (with its parked
// daemon, which must be idle) survive as well.
func (p *Port) Restore(s *PortSnapshot) {
	p.dma.assertIdle("restore")
	for r, old := range p.winDirty {
		if old.hi > old.lo {
			clear(p.inbound[r][old.lo:old.hi])
		}
	}
	p.portState = s.portState
	copy(p.spads, s.spads)
	for r, d := range p.winDirty {
		if d.hi > d.lo {
			copy(p.window(Region(r), d.hi)[d.lo:], s.win[r])
		}
	}
}

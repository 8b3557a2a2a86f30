package ntb

// PortSnapshot is a frozen image of a port's guest-visible device state:
// the scratchpad file, the doorbell status and mask registers, and the
// reclaimed bracket of each inbound window. A window holds no bytes (its
// translation's memory is the receiver's), the DMA engine must be idle
// and no window lent at capture, so neither a queue nor a loan needs an
// image.
type PortSnapshot struct {
	portState
	spads []uint32
}

// powerOn is the zero image Restore(nil) applies.
var powerOn PortSnapshot

// Snapshot captures the port's register surface.
func (p *Port) Snapshot() *PortSnapshot {
	p.assertQuiet("snapshot")
	return &PortSnapshot{portState: p.portState, spads: append([]uint32(nil), p.spads...)}
}

// Restore brings the port, whatever its previous run left, to the
// snapshot's state: the register surface is replaced. The LUT is
// intentionally not part of the snapshot: boot reprograms it with the
// same entries and no window transaction precedes boot, so an
// already-enforced LUT admits exactly what a not-yet-enforced one would.
// The ISR registration, the windows' translations and the DMA engine
// (which must be idle; its process, once started, stays parked) survive
// as well. A nil snapshot is power-on: registers and scratchpads zero.
func (p *Port) Restore(s *PortSnapshot) {
	if s == nil {
		s = &powerOn
	}
	p.assertQuiet("restore")
	p.portState = s.portState
	clear(p.spads)
	copy(p.spads, s.spads)
}

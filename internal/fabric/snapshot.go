package fabric

import (
	"fmt"

	"repro/internal/driver"
	"repro/internal/ntb"
	"repro/internal/pcie"
	"repro/internal/sim"
)

// ClusterSnapshot is a frozen image of a quiescent cluster's device
// state: the kernel clock plus the NTB port image and stop-and-wait
// channel counters of every cabled side — ring/pair sides and, on the
// switch fabric, the per-peer mesh ports. Pipelined channel state is
// owned by the links (which installed the pipes) and snapshotted there;
// the CXL fabric has no device registers to capture.
type ClusterSnapshot struct {
	n    int
	kind Kind
	sim  sim.Snapshot
	net  pcie.NetSnapshot
	// sides holds every host's Host.Ports images, host after host.
	sides []sideSnapshot
}

// sideSnapshot is one cabled side's image: its port and its channel.
type sideSnapshot struct {
	port *ntb.PortSnapshot
	tx   driver.TxSnapshot
}

// Time returns the virtual time the snapshot was captured at.
func (s *ClusterSnapshot) Time() sim.Time { return s.sim.Now() }

// Snapshot captures a quiescent cluster: the simulator between runs
// with no pending events and only parked daemons, the flow network idle,
// every DMA engine drained, every stop-and-wait ACK consumed.
func (c *Cluster) Snapshot() *ClusterSnapshot {
	s := &ClusterSnapshot{
		sim:   c.Sim.Snapshot(),
		n:     c.N(),
		kind:  c.kind,
		net:   c.Net.Snapshot(),
		sides: make([]sideSnapshot, 0, 2*c.N()),
	}
	for _, h := range c.Hosts {
		for port, tx := range h.Ports() {
			s.sides = append(s.sides, sideSnapshot{port.Snapshot(), tx.Snapshot()})
		}
	}
	return s
}

// Restore brings a quiescent cluster of identical topology, whatever it
// ran before, to the snapshot: its window and staging storage goes back
// to the mem lender (each port's Restore returns its own), every NTB
// port (scratchpads, doorbells, dirty window extents), transmit channel
// and the flow network is restored and the simulator positioned at the
// captured clock. A nil snapshot is power-on: every device at its zero
// state and the clock at zero, which is how a world returns to t0. The
// object graph itself (ports, routes, endpoints, started DMA engines)
// survives, which is the entire point: a restored cluster continues —
// or, from power-on, replays the boot exchange — with none of the
// construction cost.
// Worlds with failure injection (an unplugged cable) cannot be restored:
// the wedged DMA engine makes the simulator refuse.
func (c *Cluster) Restore(s *ClusterSnapshot) {
	var sides []sideSnapshot
	var clock sim.Snapshot
	if s != nil {
		if c.N() != s.n || c.kind != s.kind {
			panic(fmt.Sprintf("fabric: restore of a %d-host %s cluster from a %d-host %s snapshot",
				c.N(), c.kind, s.n, s.kind))
		}
		// The same kind and host count build the same cabling, so the
		// side images line up with Host.Ports, host after host.
		sides, clock = s.sides, s.sim
	}
	for _, h := range c.Hosts {
		h.staging.giveBack()
		for port, tx := range h.Ports() {
			var side sideSnapshot // power-on
			if len(sides) > 0 {
				side, sides = sides[0], sides[1:]
			}
			port.Restore(side.port)
			tx.Restore(side.tx)
		}
	}
	c.Net.Restore(pcie.NetSnapshot{})
	c.Sim.Restore(clock)
}

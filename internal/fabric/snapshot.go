package fabric

import (
	"fmt"

	"repro/internal/driver"
	"repro/internal/ntb"
	"repro/internal/pcie"
	"repro/internal/sim"
)

// ClusterSnapshot is a frozen image of a quiescent cluster's device
// state: the kernel clock plus, per host, the NTB port images and
// stop-and-wait channel counters of every cabled side — ring/pair sides
// and, on the switch fabric, the per-peer mesh ports. Pipelined channel
// state is owned by the links (which installed the pipes) and
// snapshotted there; the CXL fabric has no device registers to capture.
type ClusterSnapshot struct {
	n    int
	kind Kind
	sim  sim.Snapshot
	net  pcie.NetSnapshot
	// Per-host device images; entries are nil/zero when the side is not
	// cabled, mirroring Host.
	left, right []*ntb.PortSnapshot
	txL, txR    []driver.TxSnapshot
	// Switch-fabric mesh images, indexed [host][peer]; nil off-switch.
	mesh   [][]*ntb.PortSnapshot
	meshTx [][]driver.TxSnapshot
}

// Time returns the virtual time the snapshot was captured at.
func (s *ClusterSnapshot) Time() sim.Time { return s.sim.Now() }

// Snapshot captures a quiescent cluster: the simulator between runs
// with no pending events and only parked daemons, the flow network idle,
// every DMA engine drained, every stop-and-wait ACK consumed. A cluster
// whose construction has just ended is quiescent (construction spawns
// no process); its image has the device layers at power-on and the
// clock at zero, materialises no window and copies no bytes, and
// restoring it is how a world returns to t0.
func (c *Cluster) Snapshot() *ClusterSnapshot {
	s := &ClusterSnapshot{
		sim:   c.Sim.Snapshot(),
		n:     c.N(),
		kind:  c.kind,
		net:   c.Net.Snapshot(),
		left:  make([]*ntb.PortSnapshot, c.N()),
		right: make([]*ntb.PortSnapshot, c.N()),
		txL:   make([]driver.TxSnapshot, c.N()),
		txR:   make([]driver.TxSnapshot, c.N()),
	}
	for i, h := range c.Hosts {
		if h.Left != nil {
			s.left[i] = h.Left.Snapshot()
			s.txL[i] = h.TxLeft.Snapshot()
		}
		if h.Right != nil {
			s.right[i] = h.Right.Snapshot()
			s.txR[i] = h.TxRight.Snapshot()
		}
	}
	if c.kind == KindPCIeSwitch {
		s.mesh = make([][]*ntb.PortSnapshot, c.N())
		s.meshTx = make([][]driver.TxSnapshot, c.N())
		for i, h := range c.Hosts {
			s.mesh[i] = make([]*ntb.PortSnapshot, c.N())
			s.meshTx[i] = make([]driver.TxSnapshot, c.N())
			for j, port := range h.Mesh {
				if port != nil {
					s.mesh[i][j] = port.Snapshot()
					s.meshTx[i][j] = h.MeshTx[j].Snapshot()
				}
			}
		}
	}
	return s
}

// Restore brings a quiescent cluster of identical topology, whatever it
// ran before, to the snapshot: every NTB port (scratchpads, doorbells,
// dirty window extents), transmit channel and the flow network is restored
// and the simulator positioned at the captured clock. The object graph
// itself (ports, routes, endpoints, started DMA engines) survives, which
// is the entire point: a restored cluster continues — or, from its
// genesis image, replays the boot exchange — with none of the
// construction cost.
// Worlds with failure injection (an unplugged cable) cannot be restored:
// the wedged DMA engine makes the simulator refuse.
func (c *Cluster) Restore(s *ClusterSnapshot) {
	if c.N() != s.n || c.kind != s.kind {
		panic(fmt.Sprintf("fabric: restore of a %d-host %s cluster from a %d-host %s snapshot",
			c.N(), c.kind, s.n, s.kind))
	}
	for i, h := range c.Hosts {
		if (h.Left != nil) != (s.left[i] != nil) || (h.Right != nil) != (s.right[i] != nil) {
			panic(fmt.Sprintf("fabric: restore of host %d with mismatched cabling", i))
		}
		if h.Left != nil {
			h.Left.Restore(s.left[i])
			h.TxLeft.Restore(s.txL[i])
		}
		if h.Right != nil {
			h.Right.Restore(s.right[i])
			h.TxRight.Restore(s.txR[i])
		}
	}
	if s.mesh != nil {
		for i, h := range c.Hosts {
			for j, port := range h.Mesh {
				if port != nil {
					port.Restore(s.mesh[i][j])
					h.MeshTx[j].Restore(s.meshTx[i][j])
				}
			}
		}
	}
	c.Net.Restore(s.net)
	c.Sim.Restore(s.sim)
}

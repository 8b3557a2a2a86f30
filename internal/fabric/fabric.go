// Package fabric assembles simulated hosts into interconnect topologies
// and exposes them to the runtime through the Link backend interface
// (link.go): the paper's switchless N-host NTB ring (each host carries
// two NTB adapters, cabled to its neighbours), the two-host independent
// pair used as the Fig 8 baseline, a modelled PCIe switch with true P2P
// routing through a shared switch core, and a CXL.mem-style coherent
// mapped window.
package fabric

import (
	"fmt"

	"repro/internal/driver"
	"repro/internal/model"
	"repro/internal/ntb"
	"repro/internal/pcie"
	"repro/internal/sim"
)

// Host is one computing node: a root complex, up to two NTB adapters
// (left cables toward hostID-1, right toward hostID+1), and the driver
// endpoints and transmit channels over them. On the switch fabric the
// two ring sides stay empty and the host instead carries one mesh port
// per peer.
type Host struct {
	ID int
	RC *pcie.Server

	Left, Right     *ntb.Port         // nil when the side is not cabled
	LeftEP, RightEP *driver.Endpoint  // nil when the side is not cabled
	TxLeft, TxRight *driver.TxChannel // nil when the side is not cabled

	// Switch-fabric mesh: per-peer ports/endpoints/channels indexed by
	// peer host Id (the self slot is nil). Nil on other fabrics.
	Mesh   []*ntb.Port
	MeshEP []*driver.Endpoint
	MeshTx []*driver.TxChannel

	cluster *Cluster
}

// Cluster is a set of hosts sharing one platform profile, one simulator
// and one flow network.
type Cluster struct {
	Sim   *sim.Simulator
	Par   *model.Params // construction identity
	Net   *pcie.Network
	Hosts []*Host

	kind Kind
	cxl  *cxlState // shared CXL fabric state holds no mutable registers
}

// MaxHosts is the largest ring NewRing accepts, bounded by the driver's
// Info header host-Id width.
const MaxHosts = driver.MaxHosts

// NewRing builds the paper's switchless ring of n hosts, 2 ≤ n ≤
// MaxHosts. Host i's right adapter is cabled to host (i+1) mod n's left
// adapter; with n = 2 this yields two physical links, one per adapter
// pair, exactly as two dual-adapter hosts would be cabled. A host count
// outside the buildable range returns a descriptive error rather than
// panicking — ring size is routinely user input (flags, sweep axes).
func NewRing(s *sim.Simulator, par *model.Params, n int) (*Cluster, error) {
	if n < 2 {
		return nil, fmt.Errorf("fabric: a ring needs at least 2 hosts (each cabled to two neighbours), got %d", n)
	}
	if n > MaxHosts {
		return nil, fmt.Errorf("fabric: ring of %d hosts exceeds the %d-host limit of the driver's Info record", n, MaxHosts)
	}
	c, err := newCluster(s, par, n, KindNTBRing)
	if err != nil {
		return nil, err
	}
	for i, h := range c.Hosts {
		next := c.Hosts[(i+1)%n]
		h.Right = ntb.NewPort(fmt.Sprintf("h%d.right", i), s, c.Net, par, h.RC)
		next.Left = ntb.NewPort(fmt.Sprintf("h%d.left", next.ID), s, c.Net, par, next.RC)
		// Both adapters of link i run at that link's chipset-dependent
		// engine rate (the paper mixes PEX 8733 and 8749 parts).
		h.Right.SetEngineBW(par.LinkEngineBW(i))
		next.Left.SetEngineBW(par.LinkEngineBW(i))
		ntb.Connect(h.Right, next.Left)
	}
	for _, h := range c.Hosts {
		h.finishSides(par)
	}
	return c, nil
}

// NewPair builds the Fig 8 "independent" baseline: two hosts joined by a
// single NTB link (host 0's right adapter to host 1's left adapter), with
// the other adapter slots empty.
func NewPair(s *sim.Simulator, par *model.Params) (*Cluster, error) {
	c, err := newCluster(s, par, 2, KindNTBPair)
	if err != nil {
		return nil, err
	}
	a, b := c.Hosts[0], c.Hosts[1]
	a.Right = ntb.NewPort("h0.right", s, c.Net, par, a.RC)
	b.Left = ntb.NewPort("h1.left", s, c.Net, par, b.RC)
	a.Right.SetEngineBW(par.LinkEngineBW(0))
	b.Left.SetEngineBW(par.LinkEngineBW(0))
	ntb.Connect(a.Right, b.Left)
	a.finishSides(par)
	b.finishSides(par)
	return c, nil
}

// newCluster is the construction funnel every topology constructor goes
// through: it rejects a missing simulator or profile and a profile that
// fails Validate — all reachable from caller configuration — and builds
// the hosts' root complexes on one fresh flow network.
func newCluster(s *sim.Simulator, par *model.Params, n int, kind Kind) (*Cluster, error) {
	if s == nil {
		return nil, fmt.Errorf("fabric: a %s cluster needs a simulator, got nil", kind)
	}
	if par == nil {
		return nil, fmt.Errorf("fabric: a %s cluster needs a platform profile, got nil", kind)
	}
	if err := par.Validate(); err != nil {
		return nil, fmt.Errorf("fabric: %w", err)
	}
	c := &Cluster{Sim: s, Par: par, Net: pcie.NewNetwork(s), kind: kind}
	for i := 0; i < n; i++ {
		c.Hosts = append(c.Hosts, &Host{
			ID:      i,
			RC:      pcie.NewServer(fmt.Sprintf("rc:h%d", i), par.RootComplexBW),
			cluster: c,
		})
	}
	return c, nil
}

// finishSides builds endpoints and transmit channels for the cabled
// sides and assigns the PCIe requester IDs the LUTs filter on: bit 0
// carries the side, the rest the host Id plus one (so no assigned ID is
// the unconfigured-port zero), giving every adapter in a ring of any
// buildable size a unique ID. (The historical right-side scheme,
// id<<1|0x100, collided across hosts 128 apart.)
func (h *Host) finishSides(par *model.Params) {
	if h.Left != nil {
		h.Left.SetRequesterID(uint16(h.ID+1)<<1 | 1)
		h.LeftEP = driver.NewEndpoint(h.Left)
		h.TxLeft = driver.NewTxChannel(h.LeftEP, par)
	}
	if h.Right != nil {
		h.Right.SetRequesterID(uint16(h.ID+1) << 1)
		h.RightEP = driver.NewEndpoint(h.Right)
		h.TxRight = driver.NewTxChannel(h.RightEP, par)
	}
}

// WindowResident reports how many inbound-window bytes the cluster's
// NTB ports hold storage for (zero on CXL, which has none).
func (c *Cluster) WindowResident() int {
	total := 0
	for _, h := range c.Hosts {
		for _, port := range append([]*ntb.Port{h.Left, h.Right}, h.Mesh...) {
			if port != nil {
				total += port.WindowResident(ntb.RegionData) + port.WindowResident(ntb.RegionBypass)
			}
		}
	}
	return total
}

// RunSim drives the world's simulation to completion.
func (c *Cluster) RunSim() error { return c.Sim.Run() }

// ShutdownSim releases every process coroutine of the cluster's
// simulator.
func (c *Cluster) ShutdownSim() { c.Sim.Shutdown() }

// EventsExecuted reports the events the cluster's simulator has
// dispatched since construction or the last Restore.
func (c *Cluster) EventsExecuted() uint64 { return c.Sim.EventsExecuted() }

// Unplug is the uniform failure-injection surface: it fails the
// rightward cable of host i where the fabric has one, and reports a
// descriptive error where it does not — the pcie-switch and cxl fabrics
// have no cable to pull (their hosts meet at a shared fabric core).
// Campaign tooling probes capability through the error rather than
// discovering a missing method.
func (c *Cluster) Unplug(i int) error {
	switch c.kind {
	case KindNTBRing, KindNTBPair:
		h := c.Hosts[((i%c.N())+c.N())%c.N()]
		if h.Right == nil {
			return fmt.Errorf("fabric: host %d has no rightward cable to unplug", h.ID)
		}
		h.Right.Unplug()
		return nil
	default:
		return fmt.Errorf("fabric: unplug not supported on %s (no cable between hosts; the fabric core is shared)", c.kind)
	}
}

// N returns the number of hosts in the cluster.
func (c *Cluster) N() int { return len(c.Hosts) }

// Ring reports whether the cluster is a full ring (every side cabled).
func (c *Cluster) Ring() bool { return c.kind == KindNTBRing }

// Kind reports which fabric backend the cluster was built for.
func (c *Cluster) Kind() Kind { return c.kind }

// RightNeighbor returns the host Id one hop rightward.
func (h *Host) RightNeighbor() int { return (h.ID + 1) % h.cluster.N() }

// LeftNeighbor returns the host Id one hop leftward.
func (h *Host) LeftNeighbor() int { return (h.ID - 1 + h.cluster.N()) % h.cluster.N() }

// HopsRight returns how many rightward hops reach dst. The paper routes
// all data rightward around the ring, which is how a three-host ring
// exhibits both one- and two-hop transfers.
func (h *Host) HopsRight(dst int) int {
	return (dst - h.ID + h.cluster.N()) % h.cluster.N()
}

// Boot performs the paper's pre-setup exchange on every cabled port of h:
// each side publishes its host Id (plus one, so zero means "not yet")
// through the reserved boot scratchpad and polls for the neighbour's.
// It must run inside the simulation, once per host, before any transfer.
// It returns the discovered (leftID, rightID), with -1 for missing sides.
func (h *Host) Boot(p *sim.Proc) (leftID, rightID int) {
	leftID, rightID = -1, -1
	// Program the requester-ID LUTs first (the paper's "write/read ID
	// setup for LUT entry mapping"): each port admits its cable peer.
	for _, port := range []*ntb.Port{h.Left, h.Right} {
		if port != nil {
			port.LUTAdd(p, port.Peer().RequesterID())
		}
	}
	publish := func(port *ntb.Port) {
		if port != nil {
			port.PeerSpadWrite(p, driver.SpadBoot, uint32(h.ID)+1)
		}
	}
	publish(h.Left)
	publish(h.Right)
	poll := func(port *ntb.Port) int {
		if port == nil {
			return -1
		}
		for {
			if v := port.SpadRead(p, driver.SpadBoot); v != 0 {
				return int(v) - 1
			}
			p.Sleep(sim.Microseconds(1))
		}
	}
	leftID = poll(h.Left)
	rightID = poll(h.Right)
	return leftID, rightID
}

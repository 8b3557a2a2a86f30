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
	"iter"
	"strconv"

	"repro/internal/driver"
	"repro/internal/model"
	"repro/internal/ntb"
	"repro/internal/pcie"
	"repro/internal/sim"
)

// Host is one computing node: a root complex, up to two NTB adapters
// (left cables toward hostID-1, right toward hostID+1), and the driver
// endpoints and transmit channels over them. On the switch fabric the
// two ring sides stay empty, and the host's one mesh port per peer sits
// in the cluster's switch mesh (Ports yields them).
type Host struct {
	ID int
	RC *pcie.Server // rc, named "rc:h<ID>"

	Left, Right     *ntb.Port         // nil when the side is not cabled
	LeftEP, RightEP *driver.Endpoint  // nil when the side is not cabled
	TxLeft, TxRight *driver.TxChannel // nil when the side is not cabled

	// staging is the host's relay staging buffers, shared by whichever
	// link the host runs; Cluster.ReturnStorage gives them back.
	staging bufPool
	// rxLeft and rxRight are the slot rings the adapters' data windows
	// translate onto when the ring link runs the pipelined protocol
	// (nil otherwise); Cluster.ReturnStorage gives their storage back.
	rxLeft, rxRight *driver.PipeRx

	rc      pcie.Server
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
	cxl  *cxlState  // shared CXL fabric state holds no mutable registers
	mesh switchMesh // the switch fabric's per-peer sides; empty on the others
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
	// Host i's adapters are ports 2i (left) and 2i+1 (right) of one
	// slab, and so are their endpoints and channels.
	c.newSides(2*n, func(i int) (*Host, int) {
		if i%2 == 0 {
			return c.Hosts[i/2], ntb.SideLeft
		}
		return c.Hosts[i/2], ntb.SideRight
	})
	cables := make([]ntb.Cable, n)
	for i, h := range c.Hosts {
		next := c.Hosts[(i+1)%n]
		// Both adapters of link i run at that link's chipset-dependent
		// engine rate (the paper mixes PEX 8733 and 8749 parts).
		h.Right.SetEngineBW(par.LinkEngineBW(i))
		next.Left.SetEngineBW(par.LinkEngineBW(i))
		cables[i].Join(h.Right, next.Left)
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
	c.newSides(2, func(i int) (*Host, int) {
		if i == 0 {
			return a, ntb.SideRight
		}
		return b, ntb.SideLeft
	})
	a.Right.SetEngineBW(par.LinkEngineBW(0))
	b.Left.SetEngineBW(par.LinkEngineBW(0))
	ntb.Connect(a.Right, b.Left)
	return c, nil
}

// newCluster is the construction funnel every topology constructor goes
// through: it rejects a missing simulator or profile and a profile that
// fails Validate — all reachable from caller configuration — and builds
// the hosts, with their root complexes, in one slab on one fresh flow
// network.
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
	// Each root complex and each cable's wire is one server; a ring has
	// as many cables as hosts.
	c.Net.Reserve(2 * n)
	hosts := make([]Host, n)
	c.Hosts = make([]*Host, n)
	for i := range hosts {
		h := &hosts[i]
		h.ID, h.cluster = i, c
		h.rc.Init(sim.NameOf("rc:h", h.num()), par.RootComplexBW)
		h.RC = &h.rc
		c.Hosts[i] = h
	}
	return c, nil
}

// newSides builds n ring or pair adapters in slabs — ports, endpoints
// and transmit channels — where side(i) says which host's left or right
// adapter the i-th is, and assigns the PCIe requester IDs the LUTs
// filter on: bit 0 carries the side, the rest the host Id plus one (so
// no assigned ID is the unconfigured-port zero), giving every adapter in
// a ring of any buildable size a unique ID. (The historical right-side
// scheme, id<<1|0x100, collided across hosts 128 apart.)
func (c *Cluster) newSides(n int, side func(i int) (*Host, int)) {
	ports := ntb.NewPorts(c.Sim, c.Net, c.Par, n, func(i int) (ntb.Place, *pcie.Server) {
		h, sd := side(i)
		return ntb.Place{Host: h.ID, Side: sd}, h.RC
	})
	eps := driver.NewEndpoints(ports)
	txs := driver.NewTxChannels(eps, c.Par)
	for i := range ports {
		h, sd := side(i)
		if sd == ntb.SideLeft {
			h.Left, h.LeftEP, h.TxLeft = &ports[i], &eps[i], &txs[i]
			h.Left.SetRequesterID(uint16(h.ID+1)<<1 | 1)
		} else {
			h.Right, h.RightEP, h.TxRight = &ports[i], &eps[i], &txs[i]
			h.Right.SetRequesterID(uint16(h.ID+1) << 1)
		}
	}
}

// hostNum names a host by its Id in decimal, the subject of the names
// of its root complex and its link's queues and threads ("svc:3").
type hostNum Host

func (h *hostNum) Name() string { return strconv.Itoa(h.ID) }

func (h *Host) num() *hostNum { return (*hostNum)(h) }

// Ports yields the host's cabled sides as (NTB port, transmit channel)
// pairs: its left side, its right side, then, on the switch fabric, its
// mesh ports in peer order. Snapshot, Restore, storage return and trace
// recorders all reach a host's devices through it.
func (h *Host) Ports() iter.Seq2[*ntb.Port, *driver.TxChannel] {
	return func(yield func(*ntb.Port, *driver.TxChannel) bool) {
		if h.Left != nil && !yield(h.Left, h.TxLeft) {
			return
		}
		if h.Right != nil && !yield(h.Right, h.TxRight) {
			return
		}
		eps, txs := h.cluster.mesh.of(h.ID)
		for i := range eps {
			if !yield(eps[i].Port, &txs[i]) {
				return
			}
		}
	}
}

// Residency is the payload storage a world holds on the host.
type Residency struct {
	HeapPages    int // symmetric-heap pages holding storage (mem.PageSize bytes each)
	WindowBytes  int // memory NTB inbound windows translate onto: pipelined slot rings
	StagingBytes int // relay staging buffers
}

// Resident reports the slot-ring and staging storage the cluster holds;
// core.World.Resident adds the heap pages.
func (c *Cluster) Resident() Residency {
	var r Residency
	for _, h := range c.Hosts {
		if h.rxLeft != nil {
			r.WindowBytes += h.rxLeft.Resident() + h.rxRight.Resident()
		}
		r.StagingBytes += h.staging.resident()
	}
	return r
}

// ReturnStorage gives every pipelined slot block and relay staging
// buffer the cluster holds back to the mem lender, cleared where it was
// written: the slot rings read as zeros, and the device registers are
// left as they are. It is the storage half of Restore, which a pooled
// world runs early, at check-in. The cluster must be quiescent.
func (c *Cluster) ReturnStorage() {
	for _, h := range c.Hosts {
		if h.rxLeft != nil {
			h.rxLeft.ReturnStorage()
			h.rxRight.ReturnStorage()
		}
		h.staging.giveBack()
	}
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

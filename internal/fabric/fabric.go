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

	// Sim and Net are the simulator and flow network this host's devices
	// live on: the cluster-wide ones in an ordinary world, the host's
	// shard's in a sharded world. Shard is the owning shard index (0
	// when unsharded). Everything spawned on a host's behalf — device
	// daemons, PE processes, helper procs — must run on Host.Sim.
	Sim   *sim.Simulator
	Net   *pcie.Network
	Shard int

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

// Cluster is a set of hosts sharing one platform profile and — in an
// ordinary world — one simulator and flow network. A sharded cluster
// (PROTOCOL.md §14) spreads its hosts across several shard simulators
// tied into a sim.ShardGroup, each with its own flow network; Sim and
// Net then name shard 0's, and code driving the world goes through
// RunSim/ShutdownSim/EventsExecuted so both shapes behave alike.
type Cluster struct {
	Sim   *sim.Simulator // snap: keep — shard-0 alias; snapshotted per shard via sims
	Par   *model.Params  // snap: keep — construction identity
	Net   *pcie.Network  // snap: keep — shard-0 alias; handled per shard via nets
	Hosts []*Host

	// Group ties the shard simulators together; nil when unsharded.
	// sims and nets hold one entry per shard (a single entry — Sim and
	// Net — when unsharded). All construction identity.
	Group *sim.ShardGroup  // snap: keep — construction identity; member clocks captured via sims
	sims  []*sim.Simulator // snap: keep — construction identity
	nets  []*pcie.Network  // snap: keep — construction identity

	kind Kind
	cxl  *cxlState // snap: keep — shared CXL fabric state holds no mutable registers
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
	return newRing(s, par, n, 1)
}

func newRing(s *sim.Simulator, par *model.Params, n, shards int) (*Cluster, error) {
	if n < 2 {
		return nil, fmt.Errorf("fabric: a ring needs at least 2 hosts (each cabled to two neighbours), got %d", n)
	}
	if n > MaxHosts {
		return nil, fmt.Errorf("fabric: ring of %d hosts exceeds the %d-host limit of the driver's Info record", n, MaxHosts)
	}
	c := newCluster(s, par, n, KindNTBRing, shards)
	for i, h := range c.Hosts {
		next := c.Hosts[(i+1)%n]
		h.Right = ntb.NewPort(fmt.Sprintf("h%d.right", i), h.Sim, h.Net, par, h.RC)
		next.Left = ntb.NewPort(fmt.Sprintf("h%d.left", next.ID), next.Sim, next.Net, par, next.RC)
		// Both adapters of link i run at that link's chipset-dependent
		// engine rate (the paper mixes PEX 8733 and 8749 parts).
		h.Right.SetEngineBW(par.LinkEngineBW(i))
		next.Left.SetEngineBW(par.LinkEngineBW(i))
		connectHosts(h.Right, next.Left, h, next)
	}
	for _, h := range c.Hosts {
		h.finishSides(par)
	}
	return c, nil
}

// connectHosts cables two ports, locally when both hosts live on one
// shard simulator and across the shard boundary otherwise.
func connectHosts(a, b *ntb.Port, ha, hb *Host) {
	if ha.Sim == hb.Sim {
		ntb.Connect(a, b)
		return
	}
	ntb.ConnectRemote(a, b)
}

// NewPair builds the Fig 8 "independent" baseline: two hosts joined by a
// single NTB link (host 0's right adapter to host 1's left adapter), with
// the other adapter slots empty. The error return exists for signature
// consistency with the other constructors (pair building itself cannot
// fail; bad profiles panic, as everywhere).
func NewPair(s *sim.Simulator, par *model.Params) (*Cluster, error) {
	return newPair(s, par, 1)
}

func newPair(s *sim.Simulator, par *model.Params, shards int) (*Cluster, error) {
	c := newCluster(s, par, 2, KindNTBPair, shards)
	a, b := c.Hosts[0], c.Hosts[1]
	a.Right = ntb.NewPort("h0.right", a.Sim, a.Net, par, a.RC)
	b.Left = ntb.NewPort("h1.left", b.Sim, b.Net, par, b.RC)
	a.Right.SetEngineBW(par.LinkEngineBW(0))
	b.Left.SetEngineBW(par.LinkEngineBW(0))
	connectHosts(a.Right, b.Left, a, b)
	a.finishSides(par)
	b.finishSides(par)
	return c, nil
}

// shardOf maps host i of n onto one of `shards` contiguous host ranges.
func shardOf(i, n, shards int) int { return i * shards / n }

func newCluster(s *sim.Simulator, par *model.Params, n int, kind Kind, shards int) *Cluster {
	if err := par.Validate(); err != nil {
		panic(fmt.Sprintf("fabric: %v", err))
	}
	if shards < 1 {
		shards = 1
	}
	c := &Cluster{Par: par, kind: kind}
	if shards == 1 {
		if s == nil {
			panic("fabric: unsharded cluster needs a simulator")
		}
		c.Sim = s
		c.sims = []*sim.Simulator{s}
		c.nets = []*pcie.Network{pcie.NewNetwork(s)}
	} else {
		if s != nil {
			panic("fabric: a sharded cluster builds its own member simulators")
		}
		c.sims = make([]*sim.Simulator, shards)
		c.nets = make([]*pcie.Network, shards)
		for i := range c.sims {
			c.sims[i] = sim.New()
			c.nets[i] = pcie.NewNetwork(c.sims[i])
		}
		c.Group = sim.NewShardGroup(LookaheadFor(kind, par), c.sims...)
		c.Sim = c.sims[0]
	}
	c.Net = c.nets[0]
	for i := 0; i < n; i++ {
		shard := shardOf(i, n, shards)
		h := &Host{
			ID:      i,
			RC:      pcie.NewServer(fmt.Sprintf("rc:h%d", i), par.RootComplexBW),
			Sim:     c.sims[shard],
			Net:     c.nets[shard],
			Shard:   shard,
			cluster: c,
		}
		c.Hosts = append(c.Hosts, h)
	}
	return c
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

// Shards returns how many shard simulators the cluster's hosts are
// spread across (1 when unsharded).
func (c *Cluster) Shards() int { return len(c.sims) }

// RunSim drives the world's simulation to completion — the shard
// group's conservative window loop when sharded, the plain scheduler
// otherwise.
func (c *Cluster) RunSim() error {
	if c.Group != nil {
		return c.Group.Run()
	}
	return c.Sim.Run()
}

// ShutdownSim releases every simulator goroutine the cluster owns (all
// shard members and their window workers).
func (c *Cluster) ShutdownSim() {
	if c.Group != nil {
		c.Group.Shutdown()
		return
	}
	c.Sim.Shutdown()
}

// EventsExecuted sums dispatched events across the cluster's shard
// simulators — the same kernel-cost measure at any shard count.
func (c *Cluster) EventsExecuted() uint64 {
	if c.Group != nil {
		return c.Group.EventsExecuted()
	}
	return c.Sim.EventsExecuted()
}

// Unplug is the uniform failure-injection surface: it fails the
// rightward cable of host i where the fabric has one, and reports a
// descriptive error where it does not — the pcie-switch and cxl fabrics
// have no cable to pull (their hosts meet at a shared fabric core), and
// a sharded world pins its cables for the conservative-synchronisation
// contract. Campaign tooling probes capability through the error rather
// than discovering a missing method.
func (c *Cluster) Unplug(i int) error {
	switch c.kind {
	case KindNTBRing, KindNTBPair:
		if c.Group != nil {
			return fmt.Errorf("fabric: unplug not supported on a sharded %s world (cross-shard cables are pinned); run with -shards 1", c.kind)
		}
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

// CutLink fails the cable between host i and host (i+1) mod N, for
// failure injection (see ntb.Port.Unplug for the resulting semantics).
func (c *Cluster) CutLink(i int) {
	h := c.Hosts[i%c.N()]
	if h.Right == nil {
		panic(fmt.Sprintf("fabric: host %d has no rightward cable", h.ID))
	}
	h.Right.Unplug()
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

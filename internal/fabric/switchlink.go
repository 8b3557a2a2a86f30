package fabric

import (
	"fmt"

	"repro/internal/driver"
	"repro/internal/model"
	"repro/internal/ntb"
	"repro/internal/pcie"
	"repro/internal/sim"
)

// MaxSwitchHosts is the downstream port count of the modelled PCIe
// switch (a large multi-port part; also what keeps the per-peer
// requester-ID scheme within its 8-bit fields).
const MaxSwitchHosts = 64

// NewSwitch builds a PCIe-switch fabric of n hosts: every host pair is
// joined by a dedicated NTB port pair whose traffic is routed through
// the host's uplink and the shared switch core, so any pair can talk
// peer-to-peer in one hop while all pairs contend for the core's
// bandwidth in the flow network — the contention profile that
// distinguishes a switched fabric from the ring's per-cable wires.
func NewSwitch(s *sim.Simulator, par *model.Params, n int) (*Cluster, error) {
	if n < 2 {
		return nil, fmt.Errorf("fabric: a switched fabric needs at least 2 hosts, got %d", n)
	}
	if n > MaxSwitchHosts {
		return nil, fmt.Errorf("fabric: %d hosts exceed the modelled switch's %d downstream ports", n, MaxSwitchHosts)
	}
	c, err := newCluster(s, par, n, KindPCIeSwitch)
	if err != nil {
		return nil, err
	}
	servers := make([]pcie.Server, n+1) // the uplinks, then the core
	core := &servers[n]
	core.Init(sim.Named("switch-core"), par.SwitchCoreBW)
	// Host i's mesh port facing j is port i*(n-1) + peerSlot(i, j) of
	// one slab, and so are its endpoint and channel.
	ports := ntb.NewPorts(s, c.Net, par, n*(n-1), func(k int) (ntb.Place, *pcie.Server) {
		i := k / (n - 1)
		return ntb.Place{Host: i, Side: slotPeer(i, k%(n-1))}, c.Hosts[i].RC
	})
	c.mesh.per = n - 1
	c.mesh.eps = driver.NewEndpoints(ports)
	c.mesh.txs = driver.NewTxChannels(c.mesh.eps, par)
	for i, h := range c.Hosts {
		servers[i].Init(sim.NameOf("uplink:h", h.num()), par.EffectiveWireBW())
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pi, pj := c.mesh.port(i, j), c.mesh.port(j, i)
			// Host i's port facing j: (i+1) in the high byte, (j+1) in
			// the low — unique across the fabric, never the unconfigured
			// zero, and disjoint from the ring scheme's shifted Ids.
			pi.SetRequesterID(uint16(i+1)<<8 | uint16(j+1))
			pj.SetRequesterID(uint16(j+1)<<8 | uint16(i+1))
			ntb.ConnectVia(pi, pj, &servers[i], core, &servers[j])
		}
	}
	return c, nil
}

// switchMesh is a switch cluster's per-peer sides: one slab of
// endpoints (each holding its port, from one slab of ports) and one of
// channels, host after host, each host's n-1 sides in increasing peer
// order with itself skipped (peerSlot). Other fabrics leave it empty.
type switchMesh struct {
	per int // sides per host
	eps []driver.Endpoint
	txs []driver.TxChannel
}

// of returns host i's sides in peer-slot order; none off the switch.
func (m *switchMesh) of(i int) ([]driver.Endpoint, []driver.TxChannel) {
	lo, hi := i*m.per, (i+1)*m.per
	return m.eps[lo:hi:hi], m.txs[lo:hi:hi]
}

// port returns host i's mesh port facing host j.
func (m *switchMesh) port(i, j int) *ntb.Port { return m.eps[i*m.per+peerSlot(i, j)].Port }

// peerSlot is the slot in which host i keeps its side facing host j ≠ i.
func peerSlot(i, j int) int {
	if j > i {
		return j - 1
	}
	return j
}

// slotPeer is the host that host i's side in slot k faces.
func slotPeer(i, k int) int {
	if k >= i {
		return k + 1
	}
	return k
}

// switchLink attaches one host of the switched fabric. Every message is
// single-hop through the switch — no relay staging, no routing decision,
// no bypass window — but the NTB protocol machinery is unchanged: each
// per-peer port has its stop-and-wait channel, doorbell announcement,
// and one shared service thread (the embedded service core) consuming
// arrivals from every peer port in doorbell order.
// The switch has no ring to circulate barrier tokens around, so Barrier
// and Sync report false and the runtime's dissemination fallback runs
// over Send — sound here because sends are delivery-synchronous.
type switchLink struct {
	ntbService

	// The host's mesh sides, slices of the cluster's slabs in peer-slot
	// order; the cluster snapshot owns the channels' state.
	eps []driver.Endpoint
	txs []driver.TxChannel
}

// init builds the switch link of host h in place, in the cluster's slab
// of links.
func (l *switchLink) init(c *Cluster, h *Host, opts LinkOptions) {
	l.ntbService.init(c, h, opts, l)
	l.eps, l.txs = c.mesh.of(h.ID)
}

// txTo returns the channel of the port facing host dst.
func (l *switchLink) txTo(dst int) *driver.TxChannel { return &l.txs[peerSlot(l.host.ID, dst)] }

// hop sends a staged reply by the requester's port.
func (l *switchLink) hop(info driver.Info) (driver.Sender, driver.Info) {
	return l.txTo(int(info.Dst)), info
}

// transit refuses a chunk addressed elsewhere: every port faces its
// destination.
func (l *switchLink) transit(p *sim.Proc, info driver.Info, payload []byte, ack Acker) {
	l.misrouted(info)
}

// Start wires the data doorbells of every per-peer port to the service
// thread.
func (l *switchLink) Start(deliver Handler) {
	l.start(deliver, len(l.eps))
	for i := range l.eps {
		l.listen(&l.eps[i])
	}
}

// Boot programs every mesh port's LUT with its peer, publishes this
// host's Id to all peers, and polls for theirs — the ring boot exchange
// generalised to a full mesh, in increasing peer order.
func (l *switchLink) Boot(p *sim.Proc) {
	h := l.host
	for i := range l.eps {
		port := l.eps[i].Port
		port.LUTAdd(p, port.Peer().RequesterID())
	}
	for i := range l.eps {
		l.eps[i].Port.PeerSpadWrite(p, driver.SpadBoot, uint32(h.ID)+1)
	}
	for i := range l.eps {
		port, peer := l.eps[i].Port, slotPeer(h.ID, i)
		for {
			if v := port.SpadRead(p, driver.SpadBoot); v != 0 {
				if int(v)-1 != peer {
					panic(fmt.Sprintf("fabric: host %d discovered host %d behind its port to %d",
						h.ID, int(v)-1, peer))
				}
				break
			}
			p.Sleep(sim.Microseconds(1))
		}
	}
}

// Send pushes one chunk through the switch to its destination's port,
// stop-and-wait. The chunk is delivered (copied into the peer's heap
// and acknowledged) before Send returns.
func (l *switchLink) Send(p *sim.Proc, info driver.Info, payload driver.Payload) {
	info.Dir = driver.DirRight
	info.Region = ntb.RegionData
	l.txTo(int(info.Dst)).SendChunk(p, info, payload, l.opts.Mode)
}

// Reply stages a response on the forwarder for single-hop return.
func (l *switchLink) Reply(p *sim.Proc, orig driver.Info, reply driver.Info, data []byte) {
	reply.Dir = driver.DirRight
	reply.Region = ntb.RegionData
	l.enqueueForward(reply, data)
}

// Barrier reports false: the switch has no token ring, so the runtime's
// dissemination barrier runs over Send (delivery-synchronous here).
func (l *switchLink) Barrier(p *sim.Proc) bool { return false }

// Sync reports false for the same reason.
func (l *switchLink) Sync(p *sim.Proc) bool { return false }

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
	// Host i's mesh port facing j is port slot(i, j) of one slab, and so
	// are its endpoint and channel.
	slot := func(i, j int) int {
		if j > i {
			j--
		}
		return i*(n-1) + j
	}
	ports := ntb.NewPorts(s, c.Net, par, n*(n-1), func(k int) (ntb.Place, *pcie.Server) {
		i, j := k/(n-1), k%(n-1)
		if j >= i {
			j++
		}
		return ntb.Place{Host: i, Side: j}, c.Hosts[i].RC
	})
	eps := driver.NewEndpoints(ports)
	txs := driver.NewTxChannels(eps, par)
	mesh := make([]*ntb.Port, n*n)
	meshEP := make([]*driver.Endpoint, n*n)
	meshTx := make([]*driver.TxChannel, n*n)
	for i, h := range c.Hosts {
		servers[i].Init(sim.NameOf("uplink:h", h.num()), par.EffectiveWireBW())
		h.Mesh, h.MeshEP, h.MeshTx = mesh[i*n:(i+1)*n:(i+1)*n], meshEP[i*n:(i+1)*n:(i+1)*n], meshTx[i*n:(i+1)*n:(i+1)*n]
		for j := range n {
			if j != i {
				k := slot(i, j)
				h.Mesh[j], h.MeshEP[j], h.MeshTx[j] = &ports[k], &eps[k], &txs[k]
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pi, pj := c.Hosts[i].Mesh[j], c.Hosts[j].Mesh[i]
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
}

// init builds the switch link of host h in place, in the cluster's slab
// of links.
func (l *switchLink) init(c *Cluster, h *Host, opts LinkOptions) { l.ntbService.init(c, h, opts, l) }

// hop sends a staged reply by the requester's port.
func (l *switchLink) hop(info driver.Info) (driver.Sender, driver.Info) {
	return l.host.MeshTx[int(info.Dst)], info
}

// transit refuses a chunk addressed elsewhere: every port faces its
// destination.
func (l *switchLink) transit(p *sim.Proc, info driver.Info, payload []byte, ack Acker) {
	l.misrouted(info)
}

// Start wires the data doorbells of every per-peer port and creates the
// service and forwarder threads.
func (l *switchLink) Start(deliver Handler) {
	l.start(deliver, l.host.MeshEP...)
}

// Boot programs every mesh port's LUT with its peer, publishes this
// host's Id to all peers, and polls for theirs — the ring boot exchange
// generalised to a full mesh, in increasing peer order.
func (l *switchLink) Boot(p *sim.Proc) {
	h := l.host
	for _, port := range h.Mesh {
		if port != nil {
			port.LUTAdd(p, port.Peer().RequesterID())
		}
	}
	for _, port := range h.Mesh {
		if port != nil {
			port.PeerSpadWrite(p, driver.SpadBoot, uint32(h.ID)+1)
		}
	}
	for peer, port := range h.Mesh {
		if port == nil {
			continue
		}
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
	l.host.MeshTx[int(info.Dst)].SendChunk(p, info, payload, l.opts.Mode)
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

package fabric

import (
	"fmt"

	"repro/internal/driver"
	"repro/internal/model"
	"repro/internal/pcie"
	"repro/internal/sim"
)

// MaxCXLHosts is the number of hosts the modelled CXL fabric's window
// decoders address.
const MaxCXLHosts = 256

// cxlState is the shared fabric state of a CXL cluster: one flow-network
// server modelling the fabric's data path, the interned per-ordered-pair
// routes through it, a per-target home-agent mutex serialising
// operations on each host's memory, and the delivery handlers the links
// register at Start. All of it is construction identity or provably idle
// after a clean run (the home-agent mutexes are held only inside a
// Send), so no snapshot covers it; per-link counters live on the links.
type cxlState struct {
	server *pcie.Server    // interned flow-network server
	routes [][]*pcie.Route // interned [src][dst] paths
	mu     []*sim.Mutex    // free after any clean run
	links  []*cxlLink      // construction identity
}

// NewCXL builds a CXL.mem-style fabric of n hosts: every host maps a
// coherent window onto every other host's memory, so a transfer
// completes like a store — synchronously on the issuing process, with a
// fixed coherence latency plus flow-network streaming time through the
// shared fabric — and no doorbell interrupts or service threads exist.
func NewCXL(s *sim.Simulator, par *model.Params, n int) (*Cluster, error) {
	if n < 2 {
		return nil, fmt.Errorf("fabric: a CXL fabric needs at least 2 hosts, got %d", n)
	}
	if n > MaxCXLHosts {
		return nil, fmt.Errorf("fabric: %d hosts exceed the modelled CXL fabric's %d window decoders", n, MaxCXLHosts)
	}
	c, err := newCluster(s, par, n, KindCXL)
	if err != nil {
		return nil, err
	}
	st := &cxlState{
		server: pcie.NewServer("cxl-fabric", par.CXLWindowBW),
		routes: make([][]*pcie.Route, n),
		mu:     make([]*sim.Mutex, n),
		links:  make([]*cxlLink, n),
	}
	for i, h := range c.Hosts {
		st.mu[i] = sim.NewMutex(hostName("cxl-home:", i))
		st.routes[i] = make([]*pcie.Route, n)
		for j := 0; j < n; j++ {
			if j != i {
				st.routes[i][j] = c.Net.NewRoute(h.RC, st.server, c.Hosts[j].RC)
			}
		}
	}
	c.cxl = st
	return c, nil
}

// cxlLink attaches one host of the CXL fabric. There is no service
// thread, no forwarder, and no doorbell: Send performs the coherence
// access and delivers the message inline on the issuing process, under
// the target's home-agent mutex, so operations on one host's memory are
// serialised in virtual time exactly as a home agent serialises them.
// Replies generated inside a delivery (get data, AMO results) are
// delivered the same way but without taking a mutex — the requester's
// runtime state is only ever touched by its own pending-request
// bookkeeping — which is also what makes the inline recursion
// deadlock-free: a delivery can trigger a Reply but never another Send.
type cxlLink struct {
	c       *Cluster    // construction identity
	host    *Host       // construction identity
	opts    LinkOptions // construction identity
	deliver Handler     // installed handler survives recycling and forking
	st      *cxlState   // shared fabric state
	pool    bufPool     // warm staging buffers hold no simulation state

	stats LinkStats // the per-run state: Snapshot copies it, Restore assigns it back
}

func newCXLLink(c *Cluster, h *Host, opts LinkOptions) *cxlLink {
	l := &cxlLink{
		c:    c,
		host: h,
		opts: opts,
		st:   c.cxl,
		pool: bufPool{par: c.Par},
	}
	c.cxl.links[h.ID] = l
	return l
}

// Start registers the delivery handler with the shared fabric. A
// load/store fabric has no service threads.
func (l *cxlLink) Start(deliver Handler) {
	l.deliver = deliver
}

// Boot is the CXL setup exchange: window decoders are programmed by the
// fabric manager before the application starts, so each host only pays
// one coherence round trip verifying its mapping.
func (l *cxlLink) Boot(p *sim.Proc) {
	p.Sleep(l.c.Par.CXLLatency)
}

// access pays the coherence round trip and streams size bytes through
// the shared fabric along the interned route.
func (l *cxlLink) access(p *sim.Proc, dst int, size int) {
	p.Sleep(l.c.Par.CXLLatency)
	if size > 0 {
		l.c.Net.TransferRoute(p, int64(size), l.c.Par.CXLWindowBW, l.st.routes[l.host.ID][dst])
	}
}

// nopAck is the ack delivered messages receive: the payload aliases the
// sender's buffer, which outlives the synchronous delivery.
func nopAck(*sim.Proc) {}

// Send completes a message like a store: coherence access, then inline
// delivery on the issuing process under the target's home-agent mutex.
func (l *cxlLink) Send(p *sim.Proc, info driver.Info, payload driver.Payload) {
	dst := int(info.Dst)
	l.access(p, dst, payload.N)
	mu := l.st.mu[dst]
	mu.Lock(p)
	l.st.links[dst].deliver(p, info, payload.Buf[:payload.N], nopAck)
	mu.Unlock()
}

// Reply returns a response to the requester inline, without a mutex
// (see the type comment); data borrowed from GetBuf goes back to the
// pool once delivered.
func (l *cxlLink) Reply(p *sim.Proc, orig driver.Info, reply driver.Info, data []byte) {
	requester := int(reply.Dst)
	l.access(p, requester, len(data))
	l.st.links[requester].deliver(p, reply, data, nopAck)
	if data != nil {
		l.pool.put(data)
	}
}

// Drain is a no-op: every Send has fully delivered by the time it
// returns, and nothing is ever staged.
func (l *cxlLink) Drain(p *sim.Proc) {}

// Barrier reports false: the runtime's dissemination barrier runs over
// Send, which is delivery-synchronous here, so the fallback is sound.
func (l *cxlLink) Barrier(p *sim.Proc) bool { return false }

// Sync reports false for the same reason.
func (l *cxlLink) Sync(p *sim.Proc) bool { return false }

// Stats reports the link's counters: zero interrupts, zero forwards —
// the measurable signature of a load/store fabric.
func (l *cxlLink) Stats() LinkStats { return l.stats }

// AssertQuiescent is trivially satisfied: the link holds no queues.
func (l *cxlLink) AssertQuiescent(op string) {}

// Snapshot and Restore cover the link's only mutable state, its
// counters.
func (l *cxlLink) Snapshot() any    { return l.stats }
func (l *cxlLink) Restore(snap any) { l.stats = snap.(LinkStats) }

// GetBuf borrows a staging buffer of at least n bytes from the host's
// pool; PutBuf returns it.
func (l *cxlLink) GetBuf(n int) []byte { return l.pool.get(n) }
func (l *cxlLink) PutBuf(b []byte)     { l.pool.put(b) }

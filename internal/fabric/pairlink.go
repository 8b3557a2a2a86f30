package fabric

import (
	"fmt"

	"repro/internal/driver"
	"repro/internal/ntb"
	"repro/internal/sim"
)

// pairLink attaches one host of the two-host independent NTB pair (the
// Fig 8 baseline wiring) to the runtime. Host 0 reaches its peer through
// its right adapter, host 1 through its left; there is exactly one cable,
// so every message is single-hop: no relay staging, no bypass window, no
// routing decision; the embedded service core's transit path stays unset.
type pairLink struct {
	ntbService

	// The single cabled side.
	out *driver.Endpoint  // construction identity
	tx  *driver.TxChannel // the cluster snapshot owns its state
	fwd driver.Dir        // Dir this host's sends carry

	// Doorbell barrier tokens (the Fig 6 protocol degenerated to one hop).
	tokens tokenPath // AssertQuiescent guarantees them drained
}

// init builds the pair link of host h in place, in the cluster's slab
// of links.
func (l *pairLink) init(c *Cluster, h *Host, opts LinkOptions) {
	l.ntbService.init(c, h, opts, l)
	if h.ID == 0 {
		l.out, l.tx, l.fwd = h.RightEP, h.TxRight, driver.DirRight
	} else {
		l.out, l.tx, l.fwd = h.LeftEP, h.TxLeft, driver.DirLeft
	}
	l.initTokenPath(&l.tokens, l.out, l.out, "barrier-start:", "barrier-end:")
}

// hop sends every staged reply by the one cable there is.
func (l *pairLink) hop(info driver.Info) (driver.Sender, driver.Info) { return l.tx, info }

// transit refuses a chunk addressed elsewhere: a pair has no third host.
func (l *pairLink) transit(p *sim.Proc, info driver.Info, payload []byte, ack Acker) {
	l.misrouted(info)
}

// Start wires the data doorbell vectors of the single adapter to the
// service thread.
func (l *pairLink) Start(deliver Handler) {
	l.start(deliver, 1)
	l.listen(l.out)
}

// Boot runs the pre-setup exchange over the single cable and validates
// the discovered peer.
func (l *pairLink) Boot(p *sim.Proc) {
	left, right := l.host.Boot(p)
	peer := 1 - l.host.ID
	got := right
	if l.host.ID == 1 {
		got = left
	}
	if got != peer {
		panic(fmt.Sprintf("fabric: host %d discovered peer %d, topology says %d", l.host.ID, got, peer))
	}
}

// Send pushes one chunk across the single cable, stop-and-wait. The
// chunk is delivered (copied into the peer's heap and acknowledged)
// before Send returns.
func (l *pairLink) Send(p *sim.Proc, info driver.Info, payload driver.Payload) {
	info.Dir = l.fwd
	info.Region = ntb.RegionData
	l.tx.SendChunk(p, info, payload, l.opts.Mode)
}

// Reply stages a response on the forwarder; on a pair the way back is
// the way everything goes.
func (l *pairLink) Reply(p *sim.Proc, orig driver.Info, reply driver.Info, data []byte) {
	reply.Dir = l.fwd
	reply.Region = ntb.RegionData
	l.enqueueForward(reply, data)
}

// Barrier is the ring doorbell protocol collapsed to one hop: host 0
// rings BARRIER_START, host 1 drains and rings it back, host 0 drains
// and launches the END round. Sends are delivery-synchronous on a pair,
// so the drains only flush replies still staged on the forwarder.
func (l *pairLink) Barrier(p *sim.Proc) bool {
	l.tokenRound(p, &l.tokens, true)
	return true
}

// Sync is the doorbell exchange without the drain.
func (l *pairLink) Sync(p *sim.Proc) bool {
	l.tokenRound(p, &l.tokens, false)
	return true
}

// AssertQuiescent panics unless the link has fully drained.
func (l *pairLink) AssertQuiescent(op string) {
	l.ntbService.AssertQuiescent(op)
	if n := l.tokens.queued(); n != 0 {
		panic(fmt.Sprintf("fabric: %s of host %d with %d barrier token(s) queued", op, l.host.ID, n))
	}
}

package fabric

import (
	"fmt"

	"repro/internal/driver"
	"repro/internal/mem"
	"repro/internal/ntb"
	"repro/internal/sim"
)

// ringLink is the reference backend: one host's attachment to the
// paper's switchless NTB ring. It owns the Fig 5 service thread, the
// bypass-buffer forwarder, rightward/shortest-arc routing, and the Fig 6
// doorbell barrier. Every results/*.csv is produced over this link, so
// its virtual timeline is the extraction invariant: thread names, wake
// order, sleeps, and per-chunk work are exactly what the pre-extraction
// runtime did.
type ringLink struct {
	ntbService

	// Link senders: the paper's stop-and-wait TxChannels (whose state
	// the cluster snapshot owns) or pipelined PipeTx, per
	// LinkOptions.Pipeline; the pipelined receivers sit in the host.
	txLeft, txRight driver.Sender

	// Ring barrier tokens (Fig 6), one path per travel direction.
	// Rightward-travelling tokens arrive on the left-side adapter (host
	// 0's left adapter faces host N-1); leftward tokens — used by the
	// bidirectional flush under shortest-path routing, and only there —
	// on the right.
	rightward tokenPath  // AssertQuiescent guarantees it drained
	leftward  *tokenPath // nil unless RouteShortest; AssertQuiescent guarantees it drained
}

// init builds the ring link of host h in place, in the cluster's slab
// of links.
func (l *ringLink) init(c *Cluster, h *Host, opts LinkOptions) {
	l.ntbService.init(c, h, opts, l)
	l.relays = true
	l.initTokenPath(&l.rightward, h.LeftEP, h.RightEP, "barrier-start:", "barrier-end:")
	// Pick the link protocol. NewPipeTx re-registers the ACK vector that
	// the fabric-built stop-and-wait channels claimed, retiring them.
	if depth := opts.Pipeline; depth >= 2 {
		l.txLeft = driver.NewPipeTx(h.LeftEP, c.Par, depth)
		l.txRight = driver.NewPipeTx(h.RightEP, c.Par, depth)
		h.rxLeft = driver.NewPipeRx(h.Left, c.Par, depth)
		h.rxRight = driver.NewPipeRx(h.Right, c.Par, depth)
	} else {
		l.txLeft = h.TxLeft
		l.txRight = h.TxRight
	}
}

// layLeftward gives every link of a shortest-arc ring its leftward
// token path, from one slab for the world: the paper's rightward ring
// never circulates a token leftward, so its links carry none.
func layLeftward(slab []ringLink) {
	paths := make([]tokenPath, len(slab))
	for i := range slab {
		l := &slab[i]
		l.leftward = &paths[i]
		l.initTokenPath(l.leftward, l.host.RightEP, l.host.LeftEP, "barrier-start-left:", "barrier-end-left:")
	}
}

// Start wires the data doorbell vectors of both adapters to the service
// thread, which, like the forwarder, starts on its first message.
func (l *ringLink) Start(deliver Handler) {
	l.start(deliver, 2)
	l.listen(l.host.LeftEP)
	l.listen(l.host.RightEP)
	if h := l.host; h.rxLeft != nil {
		l.ports[0].rx, l.ports[1].rx = h.rxLeft, h.rxRight // in start's endpoint order
	}
}

// Boot runs the paper's pre-setup exchange and validates discovery
// against the built topology.
func (l *ringLink) Boot(p *sim.Proc) {
	left, right := l.host.Boot(p)
	if left != l.host.LeftNeighbor() || right != l.host.RightNeighbor() {
		panic(fmt.Sprintf("fabric: host %d discovered neighbours (%d, %d), topology says (%d, %d)",
			l.host.ID, left, right, l.host.LeftNeighbor(), l.host.RightNeighbor()))
	}
}

// transit is the ring's staging path ("bypass data via transfer buffer",
// Fig 4): a chunk addressed to another host is copied out of the window,
// the upstream link released, and the copy queued for relay. A zero
// chunk arrives as the zero source and is relayed as it is.
func (l *ringLink) transit(p *sim.Proc, info driver.Info, payload []byte, ack Acker) {
	var data []byte
	if info.Size > 0 {
		p.Sleep(sim.BytesAt(int(info.Size), l.c.Par.MemcpyBW))
		if mem.IsZeroSource(payload) {
			data = payload
		} else {
			data = l.host.staging.get(int(info.Size))
			copy(data, payload)
		}
	}
	ack.Ack(p)
	l.enqueueForward(info, data)
}

// hop sends a chunk one hop onward in its recorded direction: the
// transmit channel for that direction, and the inbound window at the
// next hop — the data window when that hop is the final destination, the
// bypass window when the chunk must be relayed again (Fig 4).
func (l *ringLink) hop(info driver.Info) (driver.Sender, driver.Info) {
	tx, next := l.txRight, l.host.RightNeighbor()
	if info.Dir == driver.DirLeft {
		tx, next = l.txLeft, l.host.LeftNeighbor()
	}
	info.Region = ntb.RegionBypass
	if int(info.Dst) == next {
		info.Region = ntb.RegionData
	}
	return tx, info
}

// Send routes one first-hop chunk: pick the travel direction at the
// origin, the transmit channel for it, and the inbound region at the
// next hop, then push the chunk stop-and-wait (or into a pipe slot).
func (l *ringLink) Send(p *sim.Proc, info driver.Info, payload driver.Payload) {
	info.Dir = l.dirTo(int(info.Dst))
	tx, info := l.hop(info)
	tx.SendChunk(p, info, payload, l.opts.Mode)
}

// Reply sends a response back the way the request came: get replies and
// AMO replies retrace the request path leftward (or rightward, under
// shortest-arc routing of the request). The reply is staged on the
// forwarder so the service thread never blocks on a transmit channel —
// two hosts replying to each other simultaneously would deadlock.
func (l *ringLink) Reply(p *sim.Proc, orig driver.Info, reply driver.Info, data []byte) {
	reply.Dir = oppositeDir(orig.Dir)
	l.enqueueForward(reply, data)
}

// Barrier is the paper's two-round token protocol with the per-hop
// flush (see tokenRound). The flush covers the chains that run in the
// token's direction, so under shortest-path routing a second, leftward
// round is required for the leftward chains.
func (l *ringLink) Barrier(p *sim.Proc) bool {
	l.tokenRound(p, &l.rightward, true)
	if l.leftward != nil {
		l.tokenRound(p, l.leftward, true)
	}
	return true
}

// Sync is the ring doorbell protocol without the relay flush: pure
// synchronisation, no delivery guarantee. It exists so the ablation can
// price the flush.
func (l *ringLink) Sync(p *sim.Proc) bool {
	l.tokenRound(p, &l.rightward, false)
	return true
}

// dirTo returns the routing direction from this host toward dst. Under
// the paper's policy data always travels rightward; under RouteShortest
// it takes the shorter arc (ties rightward). Once chosen at the origin,
// the direction is carried in the message and forwarding never reverses
// it.
func (l *ringLink) dirTo(dst int) driver.Dir {
	if l.opts.Routing == RouteShortest {
		n := l.c.N()
		right := (dst - l.host.ID + n) % n
		if left := n - right; left < right {
			return driver.DirLeft
		}
	}
	return driver.DirRight
}

func oppositeDir(d driver.Dir) driver.Dir {
	if d == driver.DirLeft {
		return driver.DirRight
	}
	return driver.DirLeft
}

// AssertQuiescent panics unless the link has fully drained — the shared
// precondition of Snapshot and Restore.
func (l *ringLink) AssertQuiescent(op string) {
	l.ntbService.AssertQuiescent(op)
	n := l.rightward.queued()
	if l.leftward != nil {
		n += l.leftward.queued()
	}
	if n != 0 {
		panic(fmt.Sprintf("fabric: %s of host %d with %d barrier token(s) queued", op, l.host.ID, n))
	}
}

// ringLinkSnap captures a ring link's mutable state: activity counters
// plus the pipelined protocol's slot cursors when enabled (the
// stop-and-wait TxChannels and the NTB ports belong to the cluster
// snapshot).
type ringLinkSnap struct {
	stats           LinkStats
	txLeft, txRight driver.PipeTxSnapshot
	rxLeft, rxRight driver.PipeRxSnapshot
}

func (l *ringLink) Snapshot() any {
	s := &ringLinkSnap{stats: l.stats}
	if h := l.host; h.rxLeft != nil {
		s.txLeft = l.txLeft.(*driver.PipeTx).Snapshot()
		s.txRight = l.txRight.(*driver.PipeTx).Snapshot()
		s.rxLeft, s.rxRight = h.rxLeft.Snapshot(), h.rxRight.Snapshot()
	}
	return s
}

// Restore brings the link to snap; nil is power-on.
func (l *ringLink) Restore(snap any) {
	var s ringLinkSnap
	if snap != nil {
		s = *snap.(*ringLinkSnap)
	}
	l.stats = s.stats
	if h := l.host; h.rxLeft != nil {
		l.txLeft.(*driver.PipeTx).Restore(s.txLeft)
		l.txRight.(*driver.PipeTx).Restore(s.txRight)
		h.rxLeft.Restore(s.rxLeft)
		h.rxRight.Restore(s.rxRight)
	}
}

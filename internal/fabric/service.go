package fabric

import (
	"fmt"

	"repro/internal/driver"
	"repro/internal/ntb"
	"repro/internal/sim"
)

// ntbService is the service core the three NTB backends — ring, pair,
// switch — embed: the Fig 5 service thread that consumes doorbell-
// announced arrivals, the forwarder thread that pushes staged chunks
// (relays and service-thread replies) out a transmit channel, the
// bookkeeping Drain and AssertQuiescent read, the staging-buffer pool
// and the activity counters. A backend supplies only what differs: which
// ports it listens on, what happens to a chunk addressed elsewhere
// (transit), and which channel a staged chunk leaves by (hop). The
// service-thread/forwarder split exists on every backend, relaying or
// not: a reply generated inside the service thread must not block on a
// transmit channel, or two hosts answering each other's gets deadlock.
type ntbService struct {
	c       *Cluster    // construction identity
	host    *Host       // construction identity
	opts    LinkOptions // construction identity
	deliver Handler     // installed handler survives recycling and forking

	ports     []*svcPort             // construction identity, no simulation state
	svcQ      *sim.Reactor[*svcPort] // AssertQuiescent guarantees it drained
	svcActive bool                   // AssertQuiescent guarantees false (service drained)
	svcIdle   *sim.Cond              // no waiters survive a clean run
	fwdQ      *sim.Reactor[*fwdMsg]  // AssertQuiescent guarantees it drained
	fwdBusy   int                    // AssertQuiescent guarantees zero
	fwdIdle   *sim.Cond              // no waiters survive a clean run

	// transit consumes an arrival addressed to another host. Only the
	// ring relays — and so counts what its forwarder pushes as
	// LinkStats.ChunksForwarded; left nil, a misrouted chunk panics.
	transit func(p *sim.Proc, info driver.Info, payload []byte, ack func(*sim.Proc)) // construction identity
	// hop picks the transmit channel a staged chunk leaves by and fills
	// in what the next hop needs of its Info.
	hop func(info driver.Info) (driver.Sender, driver.Info) // construction identity

	stats LinkStats // the per-run state: Snapshot copies it, Restore assigns it back
}

// svcPort is one inbound port the service thread listens on. Its
// doorbell vectors queue the record itself, so the service loop finds
// the port's ack thunk — and, under the pipelined protocol, its slot
// receiver — without a lookup. The thunks are built once in start:
// arrive passes its ack through the indirect deliver handler, so a
// closure literal built in serve's loop would escape, one heap
// allocation per message on the BenchmarkWorldPut1M hot path.
type svcPort struct {
	port *ntb.Port
	ack  func(*sim.Proc)
	// rx and rel are set when the port runs the pipelined
	// header-in-window protocol: the slot receiver and its Release.
	rx  *driver.PipeRx
	rel func(*sim.Proc)
}

// fwdMsg is a staged chunk awaiting the forwarder thread.
type fwdMsg struct {
	info driver.Info
	data []byte
}

// newNTBService builds a host's service core. Its service and forwarder
// threads are reactors: each starts on the first message its queue
// receives, so a host that is never sent a chunk runs no service thread
// and one that never stages a chunk runs no forwarder.
func newNTBService(c *Cluster, h *Host, opts LinkOptions) ntbService {
	return ntbService{
		c:       c,
		host:    h,
		opts:    opts,
		svcIdle: sim.NewCond(hostName("svc-idle:", h.ID)),
		fwdIdle: sim.NewCond(hostName("fwd-idle:", h.ID)),
	}
}

// start installs the delivery handler, wires the data doorbells of every
// listed endpoint (nil entries are uncabled sides) and creates the
// service and forwarder threads (the paper's shmem_init steps 2 and 4),
// which start on their first message.
func (s *ntbService) start(deliver Handler, eps ...*driver.Endpoint) {
	s.deliver = deliver
	for _, ep := range eps {
		if ep == nil {
			continue
		}
		port := ep.Port
		sp := &svcPort{port: port, ack: func(pp *sim.Proc) { driver.Ack(pp, port) }}
		s.ports = append(s.ports, sp)
		dataVec := func() {
			s.stats.Interrupts++
			s.svcQ.Push(sp)
		}
		ep.Handle(driver.VecPut, dataVec)
		ep.Handle(driver.VecGet, dataVec)
	}
	s.svcQ = sim.NewReactor(s.c.Sim, hostName("svc:", s.host.ID), hostName("shmem-svc:", s.host.ID), s.serve)
	s.fwdQ = sim.NewReactor(s.c.Sim, hostName("fwd:", s.host.ID), hostName("shmem-fwd:", s.host.ID), s.forward)
}

// serve is the per-host service thread of Fig 5, started by the first
// DMAPUT/DMAGET doorbell. Each time a doorbell wakes it, it pays the
// thread wake-up cost and consumes the arrival; it goes back to sleep
// only when no doorbell queued more work meanwhile.
func (s *ntbService) serve(p *sim.Proc, sp *svcPort) {
	p.Sleep(s.c.Par.ServiceWake)
	for {
		s.setSvcActive(true)
		p.Sleep(s.c.Par.ISRCost)
		s.consume(p, sp)
		var ok bool
		if sp, ok = s.svcQ.TryPop(); !ok {
			s.setSvcActive(false)
			sp = s.svcQ.Pop(p)
			p.Sleep(s.c.Par.ServiceWake)
		}
	}
}

// consume handles what one doorbell on sp announced: under the paper's
// protocol it reads the transfer information from the scratchpads and
// handles one message; under the pipelined protocol it drains every
// in-order slot the doorbell (or a coalesced batch of doorbells)
// announced.
func (s *ntbService) consume(p *sim.Proc, sp *svcPort) {
	if sp.rx != nil {
		for {
			info, payload, ready := sp.rx.Next(p)
			if !ready {
				return
			}
			s.arrive(p, info, payload, sp.rel)
		}
	}
	info := driver.ReadInfo(p, sp.port)
	// The payload alias is exactly the bytes the message carried, so a
	// control message (barrier token, get request) materialises nothing
	// and a small chunk does not materialise a whole window.
	s.arrive(p, info, sp.port.InboundRange(info.Region, 0, int(info.Size)), sp.ack)
}

// arrive routes one message the service thread took off a port: chunks
// addressed here go up to the runtime's handler, anything else to the
// backend's transit path.
func (s *ntbService) arrive(p *sim.Proc, info driver.Info, payload []byte, ack func(*sim.Proc)) {
	if int(info.Dst) == s.host.ID {
		s.deliver(p, info, payload, ack)
		return
	}
	if s.transit == nil {
		panic(fmt.Sprintf("fabric: %s host %d received a chunk addressed to host %d", s.c.kind, s.host.ID, info.Dst))
	}
	s.transit(p, info, payload, ack)
}

// setSvcActive tracks whether the service thread is mid-message, for
// the barrier's inbound-drain wait.
func (s *ntbService) setSvcActive(active bool) {
	s.svcActive = active
	if !active {
		s.svcIdle.Broadcast()
	}
}

// enqueueForward hands a chunk to the forwarder thread. Callable from
// process or scheduler context.
func (s *ntbService) enqueueForward(info driver.Info, data []byte) {
	s.fwdBusy++
	s.fwdQ.Push(&fwdMsg{info: info, data: data})
}

// forward is the second half of the service path, started by the first
// staged chunk: it pushes staged chunks out the channel hop picks,
// paying the thread wake-up cost whenever the staging queue ran dry. The
// pushes are stop-and-wait like first-hop sends, but the unbounded
// staging queue decouples them from upstream ACKs, so rings cannot
// deadlock on store-and-forward cycles and no backend deadlocks on
// crossed replies.
func (s *ntbService) forward(p *sim.Proc, m *fwdMsg) {
	p.Sleep(s.c.Par.ServiceWake)
	for {
		tx, info := s.hop(m.info)
		tx.SendChunk(p, info, driver.Payload{Buf: m.data, N: len(m.data)}, s.opts.Mode)
		if m.data != nil {
			s.host.staging.put(m.data)
		}
		if s.transit != nil {
			s.stats.ChunksForwarded++
		}
		s.fwdBusy--
		if s.fwdBusy == 0 {
			s.fwdIdle.Broadcast()
		}
		var ok bool
		if m, ok = s.fwdQ.TryPop(); !ok {
			m = s.fwdQ.Pop(p)
			p.Sleep(s.c.Par.ServiceWake)
		}
	}
}

// Drain flushes this host's inbound service work and then its staged
// chunks — the full "everything that reached me has moved on" step the
// barrier protocols interpose before propagating tokens (the paper's
// "check previous DMA transfer completed"). Under the pipelined
// protocol a sender's chunks may still sit unprocessed in this host's
// window when a barrier token arrives, so the token must not pass them.
// Service handling can stage chunks but never the reverse, so this
// order suffices.
func (s *ntbService) Drain(p *sim.Proc) {
	for s.svcQ.Len() > 0 || s.svcActive {
		s.svcIdle.Wait(p)
	}
	for s.fwdBusy > 0 {
		s.fwdIdle.Wait(p)
	}
}

// AssertQuiescent panics unless the service path has fully drained — the
// shared precondition of Snapshot and Restore. Backends with barrier
// token queues extend it.
func (s *ntbService) AssertQuiescent(op string) {
	if s.svcActive || s.svcQ.Len() != 0 || s.fwdBusy != 0 || s.fwdQ.Len() != 0 {
		panic(fmt.Sprintf("fabric: %s of host %d with service work outstanding", op, s.host.ID))
	}
}

// Stats reports the link's doorbell and relay counters.
func (s *ntbService) Stats() LinkStats { return s.stats }

// Snapshot and Restore cover the only mutable state a quiescent service
// core holds, its counters; the ring adds its pipe cursors.
func (s *ntbService) Snapshot() any    { return s.stats }
func (s *ntbService) Restore(snap any) { s.stats = snap.(LinkStats) }

// GetBuf borrows a staging buffer of n bytes from the host's pool; the
// forwarder returns it once the reply is pushed.
func (s *ntbService) GetBuf(n int) []byte { return s.host.staging.get(n) }

// tokenPath is one travel direction of the Fig 6 doorbell barrier on
// one host: tokens leave by out's doorbells and arrive, as interrupts on
// the facing adapter, in the two queues.
type tokenPath struct {
	out          *driver.Endpoint
	startQ, endQ *sim.Queue[struct{}]
}

// newTokenPath wires the barrier vectors of in (where this direction's
// tokens arrive) to a fresh queue pair named after suffix.
func (s *ntbService) newTokenPath(in, out *driver.Endpoint, suffix string) *tokenPath {
	t := &tokenPath{
		out:    out,
		startQ: sim.NewQueue[struct{}](hostName("barrier-start"+suffix+":", s.host.ID)),
		endQ:   sim.NewQueue[struct{}](hostName("barrier-end"+suffix+":", s.host.ID)),
	}
	token := func(q *sim.Queue[struct{}]) func() {
		return func() {
			s.stats.Interrupts++
			q.Push(struct{}{})
		}
	}
	in.Handle(driver.VecBarrierStart, token(t.startQ))
	in.Handle(driver.VecBarrierEnd, token(t.endQ))
	return t
}

// queued reports tokens received but not consumed.
func (t *tokenPath) queued() int { return t.startQ.Len() + t.endQ.Len() }

// tokenRound is the paper's two-round protocol (Fig 6) along one path:
// host 0 sends BARRIER_START; each host forwards it — after Drain, when
// flush is set — and when the start round returns to host 0 it launches
// the BARRIER_END round the same way; hosts release as the end passes.
// Every token receipt charges the application thread's wake-up cost.
//
// The per-hop flush is what upgrades the barrier from synchronisation to
// delivery: a host only propagates the token once every chunk staged on
// it has been pushed one hop (and acknowledged — for a final hop that
// means copied into the destination heap). Induction along the token's
// path flushes every chain that runs in the token's direction.
func (s *ntbService) tokenRound(p *sim.Proc, t *tokenPath, flush bool) {
	if s.host.ID == 0 {
		t.out.Ring(p, driver.VecBarrierStart)
	}
	s.waitToken(p, t.startQ)
	if flush {
		s.Drain(p)
	}
	if s.host.ID == 0 {
		t.out.Ring(p, driver.VecBarrierEnd)
		s.waitToken(p, t.endQ)
	} else {
		t.out.Ring(p, driver.VecBarrierStart)
		s.waitToken(p, t.endQ)
		t.out.Ring(p, driver.VecBarrierEnd)
	}
}

// waitToken blocks on a doorbell-token queue and charges the application
// thread wake-up cost.
func (s *ntbService) waitToken(p *sim.Proc, q *sim.Queue[struct{}]) {
	q.Pop(p)
	p.Sleep(s.c.Par.AppWake)
}

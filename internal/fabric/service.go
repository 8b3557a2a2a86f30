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
// (relays and service-thread replies) out a transmit channel (built by
// the first chunk staged, see forwarder), the bookkeeping Drain and
// AssertQuiescent read, the staging-buffer pool and the activity
// counters. A backend supplies only what differs: which
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
	link    backend     // construction identity: the backend embedding this core
	relays  bool        // construction identity: whether link relays transit chunks

	ports     []svcPort                          // construction identity, no simulation state
	portBuf   [2]svcPort                         // ports' backing on the ring and the pair
	svcQ      sim.Reactor[*ntbService, *svcPort] // AssertQuiescent guarantees it drained
	svcActive bool                               // AssertQuiescent guarantees false (service drained)
	svcIdle   sim.Cond                           // no waiters survive a clean run
	fwd       *forwarder                         // nil until the first chunk is staged; AssertQuiescent guarantees it drained

	stats LinkStats // the per-run state: Snapshot copies it, Restore assigns it back
}

// forwarder is a host's forwarder thread and the bookkeeping Drain and
// AssertQuiescent read of it. The first chunk the host stages builds it
// (enqueueForward), so a host that never relays or replies — every host
// of a neighbour-put ring — holds none; once built it stays for the
// world's life, pooled worlds included.
type forwarder struct {
	q    sim.Reactor[*ntbService, fwdMsg]
	busy int      // chunks staged and not yet pushed; AssertQuiescent guarantees zero
	idle sim.Cond // no waiters survive a clean run
}

// backend is what a backend adds to the service core it embeds: what
// happens to a chunk addressed elsewhere, and which channel a staged
// chunk leaves by.
type backend interface {
	// transit consumes an arrival addressed to another host. Only the
	// ring relays (and so counts what its forwarder pushes as
	// LinkStats.ChunksForwarded); the others panic on a misrouted chunk.
	transit(p *sim.Proc, info driver.Info, payload []byte, ack Acker)
	// hop picks the transmit channel a staged chunk leaves by and fills
	// in what the next hop needs of its Info.
	hop(info driver.Info) (driver.Sender, driver.Info)
}

// svcPort is one inbound port the service thread listens on. Its
// doorbell vectors queue the record itself, so the service loop finds
// the port — and, under the pipelined protocol, its slot receiver —
// without a lookup, and the record is the Acker every message it
// delivers carries.
type svcPort struct {
	s    *ntbService
	port *ntb.Port
	rx   *driver.PipeRx // set when the port runs the pipelined header-in-window protocol
}

// Ack releases the message just consumed from the port: the ACK
// doorbell under the paper's protocol, the slot's Release under the
// pipelined one.
func (sp *svcPort) Ack(p *sim.Proc) {
	if sp.rx != nil {
		sp.rx.Release(p)
		return
	}
	driver.Ack(p, sp.port)
}

// Tick implements sim.Ticker as the port's data doorbell vectors
// (DMAPUT and DMAGET): it counts the interrupt and queues the port for
// the service thread.
func (sp *svcPort) Tick(uint64) {
	sp.s.stats.Interrupts++
	sp.s.svcQ.Push(sp)
}

// fwdMsg is a staged chunk awaiting the forwarder thread. It travels by
// value through the forwarder's queue, so staging a chunk allocates
// nothing once the queue is warm.
type fwdMsg struct {
	info driver.Info
	data []byte
}

// init sets up a host's service core inside link, the backend that
// embeds it. Its service thread is a reactor: it starts on the first
// message its queue receives, so a host that is never sent a chunk runs
// no service thread. The forwarder is built later still, by the first
// chunk staged. Every name is formatted only when asked for.
func (s *ntbService) init(c *Cluster, h *Host, opts LinkOptions, link backend) {
	s.c, s.host, s.opts, s.link = c, h, opts, link
	s.svcIdle.Init(sim.NameOf("svc-idle:", h.num()))
	s.svcQ.Init(c.Sim, sim.NameOf("svc:", h.num()), "shmem-svc:", s, (*ntbService).serve)
}

// start installs the delivery handler and readies the service thread to
// listen on n ports (the paper's shmem_init steps 2 and 4); the backend
// then names each with listen.
func (s *ntbService) start(deliver Handler, n int) {
	s.deliver = deliver
	// The doorbells hold pointers into ports, so its backing never moves.
	s.ports = s.portBuf[:0]
	if n > len(s.portBuf) {
		s.ports = make([]svcPort, 0, n)
	}
}

// listen wires ep's data doorbells to the service thread.
func (s *ntbService) listen(ep *driver.Endpoint) {
	s.ports = append(s.ports, svcPort{s: s, port: ep.Port})
	sp := &s.ports[len(s.ports)-1]
	ep.HandleTick(driver.VecPut, sp)
	ep.HandleTick(driver.VecGet, sp)
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
			s.arrive(p, info, payload, sp)
		}
	}
	info := driver.ReadInfo(p, sp.port)
	// The payload is exactly the bytes the message carried: the sender's
	// buffer, lent to the window until this thread's ACK, for a chunk,
	// and nothing for a control message (barrier token, get request).
	s.arrive(p, info, sp.port.InboundRange(info.Region, 0, int(info.Size)), sp)
}

// arrive routes one message the service thread took off a port: chunks
// addressed here go up to the runtime's handler, anything else to the
// backend's transit path.
func (s *ntbService) arrive(p *sim.Proc, info driver.Info, payload []byte, ack Acker) {
	if int(info.Dst) == s.host.ID {
		s.deliver.Deliver(p, info, payload, ack)
		return
	}
	s.link.transit(p, info, payload, ack)
}

// misrouted panics on a chunk addressed to another host, for the
// backends that do not relay.
func (s *ntbService) misrouted(info driver.Info) {
	panic(fmt.Sprintf("fabric: %s host %d received a chunk addressed to host %d", s.c.kind, s.host.ID, info.Dst))
}

// setSvcActive tracks whether the service thread is mid-message, for
// the barrier's inbound-drain wait.
func (s *ntbService) setSvcActive(active bool) {
	s.svcActive = active
	if !active {
		s.svcIdle.Broadcast()
	}
}

// enqueueForward hands a chunk to the forwarder thread, building the
// forwarder on the host's first staged chunk. Callable from process or
// scheduler context.
func (s *ntbService) enqueueForward(info driver.Info, data []byte) {
	f := s.fwd
	if f == nil {
		f = new(forwarder)
		f.idle.Init(sim.NameOf("fwd-idle:", s.host.num()))
		f.q.Init(s.c.Sim, sim.NameOf("fwd:", s.host.num()), "shmem-fwd:", s, (*ntbService).forward)
		s.fwd = f
	}
	f.busy++
	f.q.Push(fwdMsg{info: info, data: data})
}

// forward is the second half of the service path, started by the first
// staged chunk: it pushes staged chunks out the channel hop picks,
// paying the thread wake-up cost whenever the staging queue ran dry. The
// pushes are stop-and-wait like first-hop sends, but the unbounded
// staging queue decouples them from upstream ACKs, so rings cannot
// deadlock on store-and-forward cycles and no backend deadlocks on
// crossed replies.
func (s *ntbService) forward(p *sim.Proc, m fwdMsg) {
	f := s.fwd
	p.Sleep(s.c.Par.ServiceWake)
	for {
		tx, info := s.link.hop(m.info)
		tx.SendChunk(p, info, driver.Payload{Buf: m.data, N: len(m.data)}, s.opts.Mode)
		if m.data != nil {
			s.host.staging.put(m.data)
		}
		if s.relays {
			s.stats.ChunksForwarded++
		}
		f.busy--
		if f.busy == 0 {
			f.idle.Broadcast()
		}
		var ok bool
		if m, ok = f.q.TryPop(); !ok {
			m = f.q.Pop(p)
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
	for s.fwd != nil && s.fwd.busy > 0 {
		s.fwd.idle.Wait(p)
	}
}

// AssertQuiescent panics unless the service path has fully drained — the
// shared precondition of Snapshot and Restore. A forwarder never built
// is idle. Backends with barrier token queues extend it.
func (s *ntbService) AssertQuiescent(op string) {
	if s.svcActive || s.svcQ.Len() != 0 || s.fwd != nil && (s.fwd.busy != 0 || s.fwd.q.Len() != 0) {
		panic(fmt.Sprintf("fabric: %s of host %d with service work outstanding", op, s.host.ID))
	}
}

// Stats reports the link's doorbell and relay counters.
func (s *ntbService) Stats() LinkStats { return s.stats }

// Snapshot and Restore cover the only mutable state a quiescent service
// core holds, its counters; the ring adds its pipe cursors. Restoring
// nil is power-on.
func (s *ntbService) Snapshot() any { return s.stats }
func (s *ntbService) Restore(snap any) {
	s.stats = LinkStats{}
	if snap != nil {
		s.stats = snap.(LinkStats)
	}
}

// GetBuf borrows a staging buffer of n bytes from the host's pool; the
// forwarder returns it once the reply is pushed.
func (s *ntbService) GetBuf(n int) []byte { return s.host.staging.get(n) }

// tokenPath is one travel direction of the Fig 6 doorbell barrier on
// one host: tokens leave by out's doorbells and arrive, as interrupts on
// the facing adapter, in the two queues.
type tokenPath struct {
	s            *ntbService
	out          *driver.Endpoint
	startQ, endQ sim.Queue[struct{}]
}

// initTokenPath wires the barrier vectors of in (where this direction's
// tokens arrive) to t's queues, named start and end after the host.
func (s *ntbService) initTokenPath(t *tokenPath, in, out *driver.Endpoint, start, end string) {
	t.s, t.out = s, out
	t.startQ.Init(sim.NameOf(start, s.host.num()))
	t.endQ.Init(sim.NameOf(end, s.host.num()))
	in.HandleTick(driver.VecBarrierStart, t)
	in.HandleTick(driver.VecBarrierEnd, t)
}

// Tick implements sim.Ticker as the barrier vectors: it counts the
// interrupt and queues the token that vector vec announced.
func (t *tokenPath) Tick(vec uint64) {
	t.s.stats.Interrupts++
	if vec == driver.VecBarrierStart {
		t.startQ.Push(struct{}{})
	} else {
		t.endQ.Push(struct{}{})
	}
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
	s.waitToken(p, &t.startQ)
	if flush {
		s.Drain(p)
	}
	if s.host.ID == 0 {
		t.out.Ring(p, driver.VecBarrierEnd)
		s.waitToken(p, &t.endQ)
	} else {
		t.out.Ring(p, driver.VecBarrierStart)
		s.waitToken(p, &t.endQ)
		t.out.Ring(p, driver.VecBarrierEnd)
	}
}

// waitToken blocks on a doorbell-token queue and charges the application
// thread wake-up cost.
func (s *ntbService) waitToken(p *sim.Proc, q *sim.Queue[struct{}]) {
	q.Pop(p)
	p.Sleep(s.c.Par.AppWake)
}

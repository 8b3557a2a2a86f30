// Package pcie models PCIe data movement as a fluid-flow network.
//
// Every bulk transfer (DMA or CPU window copy) is a flow crossing a set of
// capacitated servers: the source host's root complex, the wire of each
// traversed link, the destination root complex, and a private server for
// the mover's own maximum rate (DMA engine or CPU copy speed). Concurrent
// flows share server capacity max-min fairly; the network re-solves the
// allocation whenever a flow starts or finishes and advances each flow's
// progress in closed form between those instants.
//
// This is how the repository reproduces Fig 8 of the paper: one flow alone
// is bottlenecked by its DMA engine, while three simultaneous ring flows
// also contend pairwise inside each host's root complex, shaving a few
// percent off each — the paper's "slightly diminished" simultaneous rate.
//
// The solver is incremental and allocation-free on the hot path:
//
//   - servers are interned into the owning Network on first use and
//     indexed into pre-sized, epoch-stamped scratch arrays, so a solve
//     touches no maps and allocates nothing;
//   - flows start over a Route (an interned server list with a
//     precomputed bottleneck), and the single-flow case — every latency
//     sweep's common case — takes min(limit, bottleneck) with no solver
//     run at all;
//   - re-solves are coalesced per virtual instant: starts and finishes
//     landing at one timestamp mark the network dirty and a single solve
//     runs at the end of that instant via the simulator's same-timestamp
//     ready FIFO. Zero virtual time elapses between the coalesced
//     events, so the final rates — and every completion time — are
//     identical to solving after each event individually;
//   - Transfer records issued through the blocking Transfer/TransferRoute
//     calls are pooled and recycled.
package pcie

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Server is a capacitated stage of the fabric (a root complex, a cable, a
// switch port). Capacity is in bytes per second of virtual time. A server
// belongs to at most one Network: it is interned on the first Route that
// crosses it.
type Server struct {
	name     string
	capacity float64
	net      *Network // owning network, set at interning
	idx      int      // index into the network's scratch arrays
}

// NewServer returns a server with the given capacity in bytes/second.
func NewServer(name string, capacity float64) *Server {
	if capacity <= 0 {
		panic("pcie: server capacity must be positive: " + name)
	}
	return &Server{name: name, capacity: capacity}
}

// Name returns the server's diagnostic label.
func (s *Server) Name() string { return s.name }

// Capacity returns the server's capacity in bytes/second.
func (s *Server) Capacity() float64 { return s.capacity }

// Route is an interned path through the network: the ordered server list
// a flow crosses, with the path's capacity bottleneck precomputed. Build
// one Route per (source, direction, mover) at topology-construction time
// and reuse it for every transfer, so the per-chunk path allocates
// nothing.
type Route struct {
	net        *Network
	servers    []*Server
	bottleneck float64 // min server capacity along the path
}

// NewRoute interns the listed servers into the network and returns the
// reusable route crossing them, in order.
func (n *Network) NewRoute(servers ...*Server) *Route {
	if len(servers) == 0 {
		panic("pcie: route with no servers")
	}
	bottleneck := math.Inf(1)
	for _, s := range servers {
		n.intern(s)
		if s.capacity < bottleneck {
			bottleneck = s.capacity
		}
	}
	return &Route{net: n, servers: servers, bottleneck: bottleneck}
}

// Bottleneck returns the route's minimum server capacity.
func (r *Route) Bottleneck() float64 { return r.bottleneck }

// intern assigns the server an index into the network's scratch arrays.
func (n *Network) intern(s *Server) {
	if s.net == n {
		return
	}
	if s.net != nil {
		panic("pcie: server " + s.name + " already belongs to another network")
	}
	s.net = n
	s.idx = len(n.servers)
	n.servers = append(n.servers, s)
	n.srvEpoch = append(n.srvEpoch, 0)
	n.residual = append(n.residual, 0)
	n.count = append(n.count, 0)
}

// Transfer is an in-flight flow. Wait blocks the calling process until the
// last byte has drained through every server.
type Transfer struct {
	route     *Route
	limit     float64
	remaining float64
	rate      float64
	last      sim.Time
	done      *sim.Completion
	frozen    bool // scratch for the solver
}

// Wait blocks until the transfer completes.
func (t *Transfer) Wait(p *sim.Proc) { t.done.Wait(p) }

// Done reports whether the transfer has completed.
func (t *Transfer) Done() bool { return t.done.Done() }

// Network is the fluid-flow solver bound to one simulator.
type Network struct {
	sim   *sim.Simulator // construction identity
	flows []*Transfer    // Snapshot and Restore assert none in flight
	gen   uint64         // invalidates stale completion events; bumped by Restore, never captured

	// Interned servers and the solver's per-network scratch, indexed by
	// Server.idx. srvEpoch stamps which solve last initialised a slot, so
	// a solve touches only the servers its flows cross and nothing is
	// cleared between solves.
	servers  []*Server // interned; rebuilding them is the cold-start cost pooling avoids
	epoch    uint64    // monotone solve stamp; only equality with srvEpoch matters
	srvEpoch []uint64  // per-slot stamps stay valid under a monotone epoch
	residual []float64 // scratch, fully re-initialised by each solve's epoch check
	count    []int     // scratch, fully re-initialised by each solve's epoch check
	touched  []int32   // scratch; emptied when each solve retires

	// solvePending coalesces same-instant re-solves: the first start or
	// finish at an instant schedules one solve event at that instant and
	// later churn piggybacks on it.
	solvePending bool

	// pool recycles Transfer records whose lifetime is confined to one
	// blocking Transfer/TransferRoute call.
	pool []*Transfer // warm record pool
}

// NewNetwork returns an empty flow network on s.
func NewNetwork(s *sim.Simulator) *Network {
	return &Network{sim: s}
}

// ActiveFlows reports the number of in-flight transfers.
func (n *Network) ActiveFlows() int { return len(n.flows) }

// Start begins a transfer through an ad-hoc route over the listed
// servers. It is the convenience form of StartRoute for callers without
// a prebuilt Route (tests, one-off transfers); the route is built — and
// allocated — per call.
func (n *Network) Start(bytes int64, limit float64, servers ...*Server) *Transfer {
	return n.StartRoute(bytes, limit, n.NewRoute(servers...))
}

// StartRoute begins a transfer of the given size along r, additionally
// capped at limit bytes/second (the mover's own speed; pass math.Inf(1)
// for no private cap). It may be called from process or scheduler
// context and returns immediately; the re-solve it forces is coalesced
// with any other flow churn at the current instant.
func (n *Network) StartRoute(bytes int64, limit float64, r *Route) *Transfer {
	if bytes < 0 {
		panic("pcie: negative transfer size")
	}
	if limit <= 0 {
		panic("pcie: non-positive flow limit")
	}
	if r.net != n {
		panic("pcie: route belongs to another network")
	}
	t := n.getTransfer()
	t.route = r
	t.limit = limit
	t.remaining = float64(bytes)
	t.rate = 0
	t.last = n.sim.Now()
	if bytes == 0 {
		t.done.Complete()
		return t
	}
	n.advance()
	n.flows = append(n.flows, t)
	if len(n.flows) == 1 && !n.solvePending {
		// The network was idle: there is nothing to coalesce with, so
		// solve inline (the single-flow fast path) instead of spending a
		// same-instant event. Serial chunk streams — every latency sweep
		// — therefore cost exactly one scheduled event per flow. Should
		// more churn land at this instant after all, it re-solves; zero
		// virtual time separates the two solves, so rates and completion
		// times are unchanged.
		n.reschedule()
	} else {
		n.markDirty()
	}
	return t
}

// Transfer runs a flow to completion over an ad-hoc route, blocking the
// calling process.
func (n *Network) Transfer(p *sim.Proc, bytes int64, limit float64, servers ...*Server) {
	n.TransferRoute(p, bytes, limit, n.NewRoute(servers...))
}

// TransferRoute runs a flow to completion along r, blocking the calling
// process. The flow record is pooled: because the caller never sees it,
// the network recycles it once drained, and the steady-state per-transfer
// path allocates nothing.
func (n *Network) TransferRoute(p *sim.Proc, bytes int64, limit float64, r *Route) {
	t := n.StartRoute(bytes, limit, r)
	t.done.Wait(p)
	t.route = nil
	n.pool = append(n.pool, t)
}

// getTransfer returns a recycled or fresh flow record.
func (n *Network) getTransfer() *Transfer {
	if last := len(n.pool) - 1; last >= 0 {
		t := n.pool[last]
		n.pool = n.pool[:last]
		t.done.Reset()
		return t
	}
	return &Transfer{done: sim.NewCompletion("transfer")} // pool miss; record is recycled forever after
}

// residueThreshold is the sub-byte remainder below which a flow counts as
// drained. Rates and instants are exact in the model, but progress is
// integrated in float64: a flow whose completion event was scheduled at
// ceil(remaining/rate) nanoseconds can arrive there with a residue of a
// fraction of a byte from rounding, which must complete rather than
// reschedule. Half a byte is orders of magnitude above accumulated float
// noise and below any real payload, so it cannot misclassify either way.
const residueThreshold = 0.5

// advance integrates every flow's progress up to now at its current rate
// and completes flows that have drained.
func (n *Network) advance() {
	now := n.sim.Now()
	live := n.flows[:0]
	for _, f := range n.flows {
		dt := now.Sub(f.last).Seconds()
		// float64(…) rounds the product itself, so no CPU fuses it into a
		// multiply-subtract that could move a completion by a nanosecond.
		f.remaining -= float64(f.rate * dt)
		f.last = now
		if f.remaining <= residueThreshold {
			f.remaining = 0
			f.done.Complete()
			continue
		}
		live = append(live, f)
	}
	// Clear the tail so completed flows are collectable.
	for i := len(live); i < len(n.flows); i++ {
		n.flows[i] = nil
	}
	n.flows = live
}

// solveArg is the Tick argument distinguishing a coalesced solve request
// from a flow-completion wakeup (which carries its generation stamp; the
// generation counter cannot reach ^uint64(0) in any feasible run).
const solveArg = ^uint64(0)

// markDirty schedules the instant's single coalesced solve, if not
// already pending. Starts, finishes and completion wakeups all funnel
// through here, so k same-instant events cost one solver run.
func (n *Network) markDirty() {
	if n.solvePending {
		return
	}
	n.solvePending = true
	n.sim.AfterTick(0, n, solveArg)
}

// Tick handles the network's scheduled events (sim.Ticker): coalesced
// solve requests and flow-completion wakeups. A completion wakeup whose
// generation stamp is stale — a newer start or finish already re-solved
// and rescheduled — is ignored, so it can never complete a flow early or
// double-fire.
func (n *Network) Tick(arg uint64) {
	if arg == solveArg {
		n.solvePending = false
		n.advance()
		n.reschedule()
		return
	}
	if arg != n.gen {
		return // stale completion event
	}
	// Integrate to this instant (completing drained flows and waking
	// their waiters), then defer the re-solve so that new flows those
	// waiters start at this same instant share it. A drain that empties
	// the network needs no re-solve at all: this event was the only live
	// one, and the next StartRoute solves for itself.
	n.advance()
	if len(n.flows) == 0 {
		return
	}
	n.markDirty()
}

// solve computes the max-min fair rate for every active flow. The
// overwhelmingly common single-flow case needs no solver at all: the
// flow's rate is its private limit or its route's precomputed
// bottleneck, whichever is smaller — exactly what progressive filling
// would conclude.
func (n *Network) solve() {
	if len(n.flows) == 1 {
		f := n.flows[0]
		rate := f.limit
		if b := f.route.bottleneck; b < rate {
			rate = b
		}
		f.rate = rate
		return
	}
	n.solveFull()
}

// solveFull runs progressive filling over the epoch-stamped scratch
// arrays: repeatedly find the most constrained server, fix the rates of
// the flows crossing it at their fair share, remove that capacity, and
// continue with the rest. It allocates nothing: server state lives in
// the pre-sized per-network arrays, initialised lazily per solve by
// epoch stamp.
func (n *Network) solveFull() {
	n.epoch++
	e := n.epoch
	touched := n.touched[:0]
	for _, f := range n.flows {
		f.frozen = false
		f.rate = 0
		for _, s := range f.route.servers {
			i := s.idx
			if n.srvEpoch[i] != e {
				n.srvEpoch[i] = e
				n.residual[i] = s.capacity
				n.count[i] = 0
				touched = append(touched, int32(i))
			}
			n.count[i]++
		}
	}
	n.touched = touched
	unfrozen := len(n.flows)
	for unfrozen > 0 {
		// The binding constraint is either a server's fair share or a
		// flow's private limit, whichever is smallest.
		share := math.Inf(1)
		for _, i := range touched {
			if n.count[i] == 0 {
				continue
			}
			if s := n.residual[i] / float64(n.count[i]); s < share {
				share = s
			}
		}
		for _, f := range n.flows {
			if !f.frozen && f.limit < share {
				share = f.limit
			}
		}
		if math.IsInf(share, 1) || share <= 0 {
			panic(fmt.Sprintf("pcie: solver stuck with %d unfrozen flows", unfrozen))
		}
		// Freeze every flow bound by this share: those whose limit is
		// (approximately) the share, and those crossing a server whose
		// fair share is (approximately) the share.
		const tol = 1e-9
		progressed := false
		for _, f := range n.flows {
			if f.frozen {
				continue
			}
			bound := f.limit <= share*(1+tol)
			if !bound {
				for _, s := range f.route.servers {
					i := s.idx
					if n.residual[i]/float64(n.count[i]) <= share*(1+tol) {
						bound = true
						break
					}
				}
			}
			if !bound {
				continue
			}
			f.frozen = true
			f.rate = share
			unfrozen--
			progressed = true
			for _, s := range f.route.servers {
				i := s.idx
				n.residual[i] -= share
				if n.residual[i] < 0 {
					n.residual[i] = 0
				}
				n.count[i]--
			}
		}
		if !progressed {
			panic("pcie: solver made no progress")
		}
	}
}

// reschedule re-solves rates and schedules the next completion event.
// Each run bumps the generation, invalidating every previously scheduled
// completion wakeup.
func (n *Network) reschedule() {
	n.gen++
	if len(n.flows) == 0 {
		return
	}
	n.solve()
	next := math.Inf(1)
	for _, f := range n.flows {
		if f.rate <= 0 {
			panic("pcie: active flow with zero rate")
		}
		if t := f.remaining / f.rate; t < next {
			next = t
		}
	}
	n.sim.AfterTick(sim.Duration(math.Ceil(next*1e9)), n, n.gen)
}

// Package core implements the paper's contribution: an OpenSHMEM runtime
// over the switchless PCIe NTB ring — and, through the fabric.Link
// backend interface, over any other fabric the fabric package models
// (NTB pair, PCIe switch, CXL.mem window). The runtime itself contains
// no backend-specific branches; it speaks driver.Info messages through
// its per-host Link.
//
// One PE (processing element) runs per host, as in the paper's testbed.
// The runtime follows §III of the paper:
//
//   - shmem_init: boot-time Id/address exchange over scratchpads, doorbell
//     vector setup, bypass-buffer plumbing, and creation of the per-host
//     service thread (Fig 5) that handles DMAPUT/DMAGET interrupts;
//   - a symmetric heap with same-offset-on-every-PE semantics (Fig 3);
//   - Put/Get over the NTB windows in DMA or memcpy mode, with neighbour
//     fast path and bypass-buffer forwarding for multi-hop transfers
//     (Fig 4), put data routed rightward around the ring and get replies
//     returning leftward;
//   - the two-round ring start/end barrier of Fig 6, plus centralised and
//     dissemination barrier algorithms for the ablation study;
//   - the OpenSHMEM extensions the paper lists as essential: collectives,
//     remote atomics, distributed locks, and point-to-point sync.
package core

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/driver"
	"repro/internal/fabric"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/sim"
)

// SymAddr is a symmetric-heap address: the same value designates the same
// object on every PE (Fig 3(b) of the paper).
type SymAddr int64

// BarrierAlgo selects the barrier implementation.
type BarrierAlgo int

const (
	// BarrierRing is the paper's algorithm (Fig 6): host 0 circulates a
	// BARRIER_START doorbell round and then a BARRIER_END round.
	BarrierRing BarrierAlgo = iota
	// BarrierCentral gathers arrival tokens at host 0 and fans out
	// releases, the textbook centralised barrier the paper rejects.
	BarrierCentral
	// BarrierDissemination runs ceil(log2 N) pairwise rounds.
	BarrierDissemination
)

func (b BarrierAlgo) String() string {
	switch b {
	case BarrierCentral:
		return "central"
	case BarrierDissemination:
		return "dissemination"
	default:
		return "ring"
	}
}

// Routing selects how data is steered around a ring fabric; it now
// lives with the other fabric policy knobs (the aliases keep the
// historical core API).
type Routing = fabric.Routing

const (
	// RouteRightward is the paper's policy: all data travels rightward.
	RouteRightward = fabric.RouteRightward
	// RouteShortest sends each message around the shorter arc.
	RouteShortest = fabric.RouteShortest
)

// Options configure a World.
type Options struct {
	// Mode is the data-movement mechanism for puts, gets and forwarding:
	// driver.ModeDMA (default) or driver.ModeCPU (the paper's memcpy).
	Mode driver.Mode
	// Barrier selects the barrier algorithm; the default is the paper's
	// ring start/end protocol.
	Barrier BarrierAlgo
	// Routing selects the data steering policy; the default is the
	// paper's fixed rightward routing.
	Routing Routing
	// Pipeline selects the link protocol: 0 or 1 is the paper's
	// stop-and-wait scratchpad protocol; n >= 2 enables the pipelined
	// header-in-window protocol with n slots per link direction (the
	// paper's future-work latency reduction, ablation A6).
	Pipeline int
}

// Stats counts a PE's runtime activity.
type Stats struct {
	Puts, Gets      uint64 // API calls
	PutBytes        uint64
	GetBytes        uint64
	ChunksSent      uint64 // first-hop chunks pushed by this PE
	ChunksForwarded uint64 // transit chunks relayed by the service path
	AMOs            uint64
	Barriers        uint64
	Interrupts      uint64
}

// OpEvent describes one completed application-level operation, for the
// optional operation trace.
type OpEvent struct {
	PE     int
	Op     string // "put", "get", "amo", "barrier"
	Target int    // destination PE (-1 for collectives)
	Bytes  int
	Start  sim.Time
	Dur    sim.Duration
}

// World is one OpenSHMEM job running on a ring cluster.
type World struct {
	Cluster *fabric.Cluster
	par     *model.Params
	opts    Options
	pes     []*PE         // into one slab of PEs
	opTrace func(OpEvent) // installed hooks survive recycling and forking
}

// SetOpTrace installs a hook receiving one event per completed
// application-level operation (puts, gets, atomics, barriers). The hook
// runs inline on the virtual timeline and must not block. Install before
// Run; nil detaches.
func (w *World) SetOpTrace(fn func(OpEvent)) { w.opTrace = fn }

// emitOp reports a completed operation to the trace hook.
func (pe *PE) emitOp(p *sim.Proc, op string, target, bytes int, start sim.Time) {
	if fn := pe.world.opTrace; fn != nil {
		fn(OpEvent{
			PE: pe.id, Op: op, Target: target, Bytes: bytes,
			Start: start, Dur: p.Now().Sub(start),
		})
	}
}

// PE is a processing element: the application-visible handle for one
// host's OpenSHMEM runtime state. Everything interconnect-specific —
// routing, service/relay threads, doorbells, native barriers — lives
// behind the fabric.Link; the PE holds only fabric-agnostic protocol
// state.
type PE struct {
	// peState is the runtime's per-run protocol state: a snapshot copies
	// it and restore assigns it back whole. Restore also rebuilds the
	// heap, the two token tables and the context list; every other field
	// is construction identity or must be drained at quiescence.
	peState

	id    int
	world *World      // construction identity
	link  fabric.Link // construction identity; its state is captured via its own Snapshot
	par   *model.Params
	mode  driver.Mode

	heap *mem.Heap // into the world's slab of heaps

	// Control tokens for the alternative barrier algorithms (lazily
	// created on first token; most PEs of a ring-barrier world never
	// see one, and a 1k-PE world must not pay 1k empty maps).
	ctl     map[uint32]int
	ctlCond sim.Cond // no waiters survive a clean run

	// Pending get/AMO requests by tag (lazily created on first request).
	pending map[uint32]*pendingReq

	// Per-pSync-word monotone sequence numbers for the active-set
	// collectives (lazily created).
	pSyncCounts map[SymAddr]int64

	// Live communication contexts (shmem_ctx_*).
	contexts []*Ctx

	quietCond sim.Cond // Quiet waits here; no waiters survive a clean run

	// Signalled whenever remote traffic writes this PE's heap.
	heapWrite sim.Cond // no waiters survive a clean run
}

// peState is the PE runtime's value state: barrier epochs, tag and
// context counters, the match table's location, and the statistics.
type peState struct {
	finalized bool

	barrierEpoch uint32
	syncEpoch    uint32

	nextTag uint32 // tag of the next get/AMO request

	// Two-sided messaging match table (carved from the symmetric heap
	// during shmem_init). matchTableReady doubles as "shmem_init has
	// run": Launch boots a PE only while it is false.
	matchTable      SymAddr
	matchTableReady bool

	nextCtxID int

	// Non-blocking operation tracking for Quiet.
	outstanding int

	stats Stats
}

// peNum names a PE by its Id in decimal, the subject of the names of
// its process and its conditions ("pe:3").
type peNum PE

func (pe *peNum) Name() string { return strconv.Itoa(pe.id) }

func (pe *PE) num() *peNum { return (*peNum)(pe) }

// deliverer is a PE as the fabric.Handler of its link.
type deliverer PE

func (d *deliverer) Deliver(p *sim.Proc, info driver.Info, payload []byte, ack fabric.Acker) {
	(*PE)(d).handle(p, info, payload, ack)
}

// addPending registers an in-flight get/AMO under tag, creating the
// table on first use so idle PEs carry no request state.
func (pe *PE) addPending(tag uint32, req *pendingReq) {
	if pe.pending == nil {
		pe.pending = make(map[uint32]*pendingReq)
	}
	pe.pending[tag] = req
}

// pendingReq tracks one in-flight get or AMO issued by this PE.
type pendingReq struct {
	buf     []byte // get destination
	arrived int    // bytes landed so far
	value   uint64 // AMO reply payload
	replied bool
	cond    *sim.Cond
}

// NewWorld builds an OpenSHMEM job over the given cluster, whatever its
// fabric kind. Interrupt handlers are installed immediately (before
// virtual time starts), mirroring a driver that loads before the
// application; service threads, forwarders and DMA engines start on
// their first job, so a fresh world has no pending events. The PEs and
// their heaps are laid out in one slab each, and nothing is named until
// a trace, a report or an error asks.
func NewWorld(c *fabric.Cluster, opts Options) *World {
	if opts.Routing == RouteShortest && opts.Barrier != BarrierRing {
		// Only the ring barrier's per-hop flush has a bidirectional
		// variant; the token-counting algorithms would lose the
		// delivery guarantee under two-direction traffic.
		panic("core: RouteShortest requires the ring barrier")
	}
	links, err := c.Links(fabric.LinkOptions{
		Mode:     opts.Mode,
		Routing:  opts.Routing,
		Pipeline: opts.Pipeline,
	})
	if err != nil {
		panic("core: " + err.Error())
	}
	w := &World{Cluster: c, par: c.Par, opts: opts, pes: make([]*PE, c.N())}
	pes := make([]PE, c.N())
	heaps := mem.NewHeaps(c.N(), c.Par.SymHeapChunk, c.Par.SymHeapMax)
	for i, h := range c.Hosts {
		pe := &pes[i]
		pe.id, pe.world, pe.link, pe.par, pe.mode, pe.heap = h.ID, w, links[i], c.Par, opts.Mode, &heaps[i]
		pe.ctlCond.Init(sim.NameOf("ctl:", pe.num()))
		pe.quietCond.Init(sim.NameOf("quiet:", pe.num()))
		pe.heapWrite.Init(sim.NameOf("heap-write:", pe.num()))
		w.pes[i] = pe
		pe.link.Start((*deliverer)(pe))
	}
	return w
}

// Launch spawns one application process per PE running body, preceded
// by shmem_init on a PE whose state says init has not run. A fresh or
// Reset world therefore boots, and a forked world — or one that just
// finished a RunKeep — continues the future its state carries. Call
// Cluster.RunSim (or World.Run) afterwards to execute.
func (w *World) Launch(body func(p *sim.Proc, pe *PE)) {
	for _, pe := range w.pes {
		pe := pe
		w.Cluster.Sim.GoNamed(sim.NameOf("pe:", pe.num()), func(p *sim.Proc) {
			if !pe.matchTableReady {
				pe.initPE(p)
			}
			body(p, pe)
		})
	}
}

// Run launches body on every PE and drives the simulation to completion.
func (w *World) Run(body func(p *sim.Proc, pe *PE)) error {
	w.Launch(body)
	err := w.Cluster.RunSim()
	// Shut the simulator down so the goroutines of the service threads,
	// forwarders and DMA engines the run started release their references;
	// harnesses that build many worlds per process rely on this. Use
	// Launch plus Cluster.RunSim directly to keep a world alive.
	w.Cluster.ShutdownSim()
	return err
}

// RunKeep is Run without the teardown: the world's daemons stay parked
// and its object graph stays live, so a subsequent Reset or Fork can
// recycle the world for another body, or another RunKeep can continue
// it (Launch boots no PE twice). A world run this way must
// eventually be shut down via Cluster.ShutdownSim — dropping it while
// daemons are parked leaks their goroutines.
func (w *World) RunKeep(body func(p *sim.Proc, pe *PE)) error {
	w.Launch(body)
	return w.Cluster.RunSim()
}

// Reset rewinds a cleanly finished world (a nil-error RunKeep) to its
// just-constructed state: restore of the nil image, which is power-on —
// each layer's zero state, which is what construction leaves. So a reset
// world replays any body with an event trace identical to a fresh
// world's — the invariant the bench world pool is built on.
func (w *World) Reset() { w.restore(nil) }

// PEs returns the world's processing elements in Id order.
func (w *World) PEs() []*PE { return w.pes }

// StatsReport renders every PE's activity counters as an aligned table,
// for post-run inspection by tools and tests.
func (w *World) StatsReport() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %8s %10s %8s %10s %8s %8s %6s %9s %10s\n",
		"pe", "puts", "put-bytes", "gets", "get-bytes", "chunks", "fwd", "amos", "barriers", "interrupts")
	for _, pe := range w.pes {
		s := pe.Stats()
		fmt.Fprintf(&b, "%-4d %8d %10d %8d %10d %8d %8d %6d %9d %10d\n",
			pe.id, s.Puts, s.PutBytes, s.Gets, s.GetBytes,
			s.ChunksSent, s.ChunksForwarded, s.AMOs, s.Barriers, s.Interrupts)
	}
	return b.String()
}

// initPE is shmem_init: the fabric's boot exchange plus a barrier so no
// PE proceeds before every runtime is reachable.
func (pe *PE) initPE(p *sim.Proc) {
	pe.link.Boot(p)
	pe.initMatchTable(p)
	pe.BarrierAll(p)
}

// ID returns this PE's number (my_pe in Table I).
func (pe *PE) ID() int { return pe.id }

// NumPEs returns the job size (num_pes in Table I).
func (pe *PE) NumPEs() int { return pe.world.Cluster.N() }

// Mode returns the PE's data-movement mode.
func (pe *PE) Mode() driver.Mode { return pe.mode }

// Stats returns a copy of the PE's activity counters, merged with the
// fabric-level counters its link accumulated on the PE's behalf.
func (pe *PE) Stats() Stats {
	s := pe.stats
	ls := pe.link.Stats()
	s.Interrupts = ls.Interrupts
	s.ChunksForwarded = ls.ChunksForwarded
	return s
}

// GlobalExitError reports that a PE terminated the whole job with
// shmem_global_exit.
type GlobalExitError struct {
	PE   int
	Code int
}

func (e *GlobalExitError) Error() string {
	return fmt.Sprintf("core: pe %d called global_exit(%d)", e.PE, e.Code)
}

// GlobalExit is shmem_global_exit: it terminates the entire job
// immediately with the given status. The enclosing World.Run returns a
// *GlobalExitError (wrapped by the simulator); no synchronisation with
// other PEs happens.
func (pe *PE) GlobalExit(p *sim.Proc, code int) {
	pe.checkLive()
	panic(&GlobalExitError{PE: pe.id, Code: code})
}

// Finalize is shmem_finalize: it drains outstanding work, synchronises,
// and releases the symmetric heap. The PE must not be used afterwards.
func (pe *PE) Finalize(p *sim.Proc) {
	pe.quietAllContexts(p)
	pe.Quiet(p)
	pe.BarrierAll(p)
	pe.finalized = true
}

func (pe *PE) checkLive() {
	if pe.finalized {
		panic(fmt.Sprintf("core: pe %d used after Finalize", pe.id))
	}
}

func (pe *PE) checkPeer(target int) {
	if target < 0 || target >= pe.NumPEs() {
		panic(fmt.Sprintf("core: pe %d addressed nonexistent PE %d", pe.id, target))
	}
}

// newTag mints a fresh request tag.
func (pe *PE) newTag() uint32 {
	pe.nextTag++
	return pe.nextTag
}

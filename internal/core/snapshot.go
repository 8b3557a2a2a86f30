package core

import (
	"fmt"
	"maps"

	"repro/internal/fabric"
	"repro/internal/mem"
	"repro/internal/sim"
)

// WorldSnapshot is a frozen image of a quiescent world at an arbitrary
// virtual time: per-PE runtime state (symmetric heap via copy-on-write
// pages, barrier/tag/match-table cursors, pipe cursors, stats) plus the
// cluster's device image and kernel clock. A snapshot is immutable;
// any number of worlds of the same shape can Fork from it, and forked
// children diverge without disturbing it or each other.
type WorldSnapshot struct {
	opts    Options
	n       int
	pes     []peSnapshot
	cluster *fabric.ClusterSnapshot
	events  uint64 // virtual events the capturing run executed: the replay cost a fork saves, not state
}

// Events reports how many virtual events the run that produced the
// snapshot executed: the per-fork saving the bench layer accounts.
func (s *WorldSnapshot) Events() uint64 { return s.events }

// Time returns the virtual time the snapshot was captured at.
func (s *WorldSnapshot) Time() sim.Time { return s.cluster.Time() }

// peSnapshot captures one PE's runtime state: a copy of its state
// struct, the reference fields restore rebuilds, and link, the opaque
// per-fabric capture (pipe cursors and fabric counters on the ring,
// counters elsewhere).
type peSnapshot struct {
	peState
	heap        *mem.HeapSnapshot
	ctl         map[uint32]int
	pSyncCounts map[SymAddr]int64
	link        any
}

// Snapshot captures a cleanly finished world (a nil-error RunKeep) so
// later sweeps can fork its future instead of replaying its past.
// Quiescence is asserted at every layer; a world with in-flight work
// cannot be captured.
func (w *World) Snapshot() *WorldSnapshot {
	s := &WorldSnapshot{opts: w.opts, n: len(w.pes), pes: make([]peSnapshot, len(w.pes))}
	for i, pe := range w.pes {
		s.pes[i] = pe.snapshot()
	}
	s.events = w.Cluster.EventsExecuted()
	s.cluster = w.Cluster.Snapshot()
	return s
}

// snapshot captures one quiescent PE.
func (pe *PE) snapshot() peSnapshot {
	pe.assertQuiescent("snapshot")
	if pe.finalized {
		panic(fmt.Sprintf("core: snapshot of finalized pe %d", pe.id))
	}
	if len(pe.contexts) != 0 {
		panic(fmt.Sprintf("core: snapshot of pe %d with %d live context(s)", pe.id, len(pe.contexts)))
	}
	s := peSnapshot{peState: pe.peState, heap: pe.heap.Snapshot(), link: pe.link.Snapshot()}
	// Most PEs never create either table; keep their images nil.
	if len(pe.ctl) > 0 {
		s.ctl = maps.Clone(pe.ctl)
	}
	if len(pe.pSyncCounts) > 0 {
		s.pSyncCounts = maps.Clone(pe.pSyncCounts)
	}
	return s
}

// AssertQuiescent panics (naming op) unless every PE's runtime and link
// have fully drained. Snapshot, Reset and Fork assert this and the
// device layers' quiescence besides; a harness parking a world for later
// reuse calls it so that an unclean run surfaces where it happened.
func (w *World) AssertQuiescent(op string) {
	for _, pe := range w.pes {
		pe.assertQuiescent(op)
	}
}

// assertQuiescent panics unless the PE's runtime has fully drained —
// the shared precondition of snapshot and restore. Pending requests,
// staged forwards, or un-drained service work mean the previous run did
// not complete cleanly and the world must be discarded.
func (pe *PE) assertQuiescent(op string) {
	pe.link.AssertQuiescent(op)
	if len(pe.pending) != 0 {
		panic(fmt.Sprintf("core: %s of pe %d with %d pending request(s)", op, pe.id, len(pe.pending)))
	}
	if pe.outstanding != 0 {
		panic(fmt.Sprintf("core: %s of pe %d with %d non-blocking op(s) outstanding", op, pe.id, pe.outstanding))
	}
}

// Fork brings this world to the snapshot's state, so its next
// RunKeepForked body continues the captured world's future. The world
// must have the snapshot's shape (options and PE count) and be quiescent
// — cleanly finished, whatever it ran, or freshly built. Heap pages are
// aliased copy-on-write, so a fork's cost is the device-register copies
// plus one page copy per chunk the divergent future actually writes.
func (w *World) Fork(s *WorldSnapshot) {
	if w.opts != s.opts {
		panic(fmt.Sprintf("core: fork of a %+v world from a %+v snapshot", w.opts, s.opts))
	}
	if len(w.pes) != s.n {
		panic(fmt.Sprintf("core: fork of a %d-PE world from a %d-PE snapshot", len(w.pes), s.n))
	}
	w.restore(s)
}

// restore is the one way a world changes state outside a run; Reset and
// Fork differ only in the image they pass. It panics if any layer is not
// quiescent — pending requests, staged forwards, un-drained service
// work, a failed simulation — because then the previous run did not
// complete cleanly and the world must be discarded instead of recycled.
// Service threads, forwarders and DMA engines that an earlier run
// started stay parked on their queues (one that never started still
// starts on its first job), doorbell handlers stay installed, and warm
// buffers (heap chunks, staging pool, event-queue backing) are retained.
func (w *World) restore(s *WorldSnapshot) {
	for i, pe := range w.pes {
		pe.restore(&s.pes[i])
	}
	w.Cluster.Restore(s.cluster)
}

// restore brings one quiescent PE to a captured state, first dropping
// whatever its previous run left that the image does not mention.
func (pe *PE) restore(s *peSnapshot) {
	pe.assertQuiescent("restore")
	pe.peState = s.peState
	pe.heap.Fork(s.heap)
	pe.ctl = maps.Clone(s.ctl) // nil stays nil: the tables are created lazily
	pe.pSyncCounts = maps.Clone(s.pSyncCounts)
	pe.contexts = pe.contexts[:0]
	pe.link.Restore(s.link)
}

// LaunchForked spawns one application process per PE running body
// directly, without re-running shmem_init: a forked world already
// carries the post-init runtime the snapshot captured. Drive with
// Cluster.RunSim, or use RunKeepForked.
func (w *World) LaunchForked(body func(p *sim.Proc, pe *PE)) {
	for _, pe := range w.pes {
		pe := pe
		w.Cluster.Sim.Go(pe.name, func(p *sim.Proc) {
			body(p, pe)
		})
	}
}

// RunKeepForked is RunKeep for a forked (or continuing) world: body
// starts at the current virtual time with no init prefix, the world's
// daemons stay parked afterwards for recycling. Calling it on a world
// that just finished a RunKeep continues that run's future — the
// reference behaviour Fork is tested against.
func (w *World) RunKeepForked(body func(p *sim.Proc, pe *PE)) error {
	w.LaunchForked(body)
	return w.Cluster.RunSim()
}

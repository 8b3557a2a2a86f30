package core

import (
	"fmt"
	"maps"

	"repro/internal/fabric"
	"repro/internal/mem"
	"repro/internal/sim"
)

// WorldSnapshot is a frozen image of a quiescent world at an arbitrary
// virtual time: per-PE runtime state (a copy of the symmetric heap's
// written pages, barrier/tag/match-table cursors, pipe cursors, stats)
// plus the cluster's device image and kernel clock. A snapshot is
// immutable and shares no storage with any world; any number of worlds
// of the same shape can Fork from it, and forked children diverge
// without disturbing it or each other.
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

// HeapPages reports how many symmetric-heap pages the snapshot holds a
// copy of, over every PE: the pages each Fork from it copies.
func (s *WorldSnapshot) HeapPages() int {
	n := 0
	for i := range s.pes {
		n += s.pes[i].heap.Pages()
	}
	return n
}

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

// Fork brings this world to the snapshot's state, so its next RunKeep
// body continues the captured world's future (shmem_init does not run
// again). The world must have the snapshot's shape (options and PE
// count) and be quiescent — cleanly finished, whatever it ran, or
// freshly built. A fork's cost is the device-register copies plus one
// page copy per heap page the snapshot holds.
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
// Fork differ only in the image they pass, and Reset's is nil: every
// layer's zero image, power-on. It panics if any layer is not
// quiescent — pending requests, staged forwards, un-drained service
// work, a failed simulation — because then the previous run did not
// complete cleanly and the world must be discarded instead of recycled.
// Every layer first drops what the previous run left: its payload
// storage (heap pages, window parts, staging buffers) goes back to the
// mem lender, which is all ReturnStorage does. Service threads,
// forwarders and DMA engines that an earlier run started stay parked on
// their queues (one that never started still starts on its first job),
// doorbell handlers stay installed, and the event queue keeps its
// backing.
func (w *World) restore(s *WorldSnapshot) {
	var cluster *fabric.ClusterSnapshot // power-on
	for i, pe := range w.pes {
		var ps peSnapshot // power-on
		if s != nil {
			ps = s.pes[i]
		}
		pe.restore(&ps)
	}
	if s != nil {
		cluster = s.cluster
	}
	w.Cluster.Restore(cluster)
}

// ReturnStorage gives every heap page, NTB window part and relay staging
// buffer the world holds back to the mem lender, cleared where its run
// wrote — the drop half of the next Reset or Fork, run early. The bench
// world pool calls it at check-in, so an idle pooled world parks no
// payload storage and the restore at checkout finds nothing to drop.
// The world keeps its allocations and device registers, but its heaps
// and windows read as zeros: only Reset or Fork may follow.
func (w *World) ReturnStorage() {
	w.AssertQuiescent("storage return")
	for _, pe := range w.pes {
		pe.heap.ReturnStorage()
	}
	w.Cluster.ReturnStorage()
}

// Resident reports the payload storage the world holds: heap pages,
// window bytes and staging bytes.
func (w *World) Resident() fabric.Residency {
	r := w.Cluster.Resident()
	for _, pe := range w.pes {
		r.HeapPages += pe.heap.ResidentPages()
	}
	return r
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

package core

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// Fork-equivalence property tests: a world forked from a snapshot must
// execute the snapshot's future bit-identically to the captured world
// continuing in place — which, since the captured world ran its prefix
// from t=0, makes the fork byte-identical to a fresh world running
// prefix-then-body from t=0 with the same seed. The bench prefix cache
// forks sweep points on the strength of this property.

// compareTraces fails the test on the first diverging event.
func compareTraces(t *testing.T, label string, got, want []OpEvent) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: trace length %d, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: trace diverges at event %d:\n  fork: %+v\n  ref:  %+v", label, i, got[i], want[i])
		}
	}
}

func TestForkEquivalentToFreshRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind fabric.Kind
		n    int
		opts Options
	}{
		{"default", fabric.KindNTBRing, 4, Options{}},
		{"pipelined-shortest", fabric.KindNTBRing, 4, Options{Pipeline: 4, Routing: RouteShortest}},
		{"pair", fabric.KindNTBPair, 2, Options{}},
		{"switch", fabric.KindPCIeSwitch, 4, Options{}},
		{"cxl", fabric.KindCXL, 4, Options{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prefix := resetScript(23, 3, 6)
			body := resetScript(61, 2, 5)
			events := func(w *World) uint64 { return w.Cluster.EventsExecuted() }

			// Reference: a fresh world runs prefix from t=0, then continues
			// with body on the same timeline — the ground truth a forked
			// child claims to reproduce.
			ref := newFabricWorld(tc.kind, tc.n, tc.opts)
			traceRun(t, ref, prefix)
			snap := ref.Snapshot()
			refEvents := events(ref)
			wantTrace, wantEnd, wantStats := traceRun(t, ref, body)
			bodyEvents := events(ref) - refEvents
			ref.Cluster.ShutdownSim()

			if snap.Events() != refEvents {
				t.Errorf("snapshot records %d prefix events, prefix executed %d", snap.Events(), refEvents)
			}

			// Forked children, no prefix replay: a fresh world, and a world
			// still dirty from a longer, different life — larger window
			// extents, more heap, further cursors — forked with no Reset in
			// between. Restore is total, so the two must be indistinguishable.
			fresh := newFabricWorld(tc.kind, tc.n, tc.opts)
			dirty := newFabricWorld(tc.kind, tc.n, tc.opts)
			traceRun(t, dirty, resetScript(43, 5, 9))
			for label, child := range map[string]*World{"fresh": fresh, "dirty": dirty} {
				child.Fork(snap)
				if now := child.Cluster.Sim.Now(); now != snap.Time() {
					t.Fatalf("%s: forked world starts at t=%v, snapshot taken at %v", label, now, snap.Time())
				}
				gotTrace, gotEnd, gotStats := traceRun(t, child, body)
				if got := events(child); got != bodyEvents {
					t.Errorf("%s: forked body executed %d virtual events, continuation executed %d", label, got, bodyEvents)
				}
				child.Cluster.ShutdownSim()

				if gotEnd != wantEnd {
					t.Errorf("%s: completion time: fork %v, continuation %v", label, gotEnd, wantEnd)
				}
				if gotStats != wantStats {
					t.Errorf("%s: pe 0 stats: fork %+v, continuation %+v", label, gotStats, wantStats)
				}
				compareTraces(t, label+" fork vs continuation", gotTrace, wantTrace)
			}
		})
	}
}

func TestPERestoreOverDirtyPEEqualsRestoreOfFresh(t *testing.T) {
	// The captured point: an ordinary prefix.
	src := newWorld(3, Options{})
	traceRun(t, src, resetScript(29, 2, 5))
	snap := src.Snapshot()
	body := resetScript(30, 2, 4)
	wantTrace, wantEnd, _ := traceRun(t, src, body)
	src.Cluster.Sim.Shutdown()

	// A world whose PEs ended their previous life in every state the
	// image does not mention: an active-set barrier left pSync sequence
	// numbers behind, a context was never destroyed, the PE finalized.
	dirty := newWorld(3, Options{})
	if err := dirty.RunKeep(func(p *sim.Proc, pe *PE) {
		pSync := pe.MustMalloc(p, 8*BarrierSyncWords)
		pe.BarrierAll(p)
		pe.BarrierSet(p, ActiveSet{Start: 0, LogStride: 0, Size: pe.NumPEs()}, pSync)
		pe.CtxCreate()
		pe.Finalize(p)
	}); err != nil {
		t.Fatal(err)
	}
	for _, pe := range dirty.PEs() {
		if !pe.finalized || len(pe.pSyncCounts) == 0 || len(pe.contexts) == 0 {
			t.Fatalf("test setup: pe %d not dirty (finalized=%v pSync=%d contexts=%d)",
				pe.ID(), pe.finalized, len(pe.pSyncCounts), len(pe.contexts))
		}
		// A control token no clean run leaves behind: restore must still
		// drop keys the image lacks rather than merge over them.
		pe.ctl = map[uint32]int{0xBEEF: 2}
	}
	fresh := newWorld(3, Options{})
	dirty.Fork(snap)
	fresh.Fork(snap)
	for i, got := range dirty.PEs() {
		want := fresh.PEs()[i]
		if !reflect.DeepEqual(got.peState, want.peState) {
			t.Fatalf("pe %d state after restore:\n dirty: %+v\n fresh: %+v", i, got.peState, want.peState)
		}
		// The reference fields restore rebuilds.
		if !reflect.DeepEqual(got.ctl, want.ctl) || !reflect.DeepEqual(got.pSyncCounts, want.pSyncCounts) ||
			len(got.contexts) != len(want.contexts) ||
			got.heap.Live() != want.heap.Live() || got.heap.LiveBytes() != want.heap.LiveBytes() {
			t.Fatalf("pe %d after restore: ctl %v/%v, pSync %v/%v, contexts %d/%d, heap %d/%d live",
				i, got.ctl, want.ctl, got.pSyncCounts, want.pSyncCounts,
				len(got.contexts), len(want.contexts), got.heap.Live(), want.heap.Live())
		}
	}
	for label, w := range map[string]*World{"dirty": dirty, "fresh": fresh} {
		gotTrace, gotEnd, _ := traceRun(t, w, body)
		w.Cluster.Sim.Shutdown()
		if gotEnd != wantEnd {
			t.Errorf("%s: continuation ends at %v, want %v", label, gotEnd, wantEnd)
		}
		compareTraces(t, label+" continuation", gotTrace, wantTrace)
	}
}

func TestGenesisCaptureMaterialisesNothing(t *testing.T) {
	// An image of a fresh world — power-on, which Reset restores without
	// any image — must not touch an NTB window or a symmetric heap page,
	// or a 256-PE world would pay for an image of zeroes; nor may Reset.
	// Neither may shmem_init: the image every sweep forks from right
	// after it freezes no heap page and copies no window byte.
	w := newWorld(256, Options{})
	defer w.Cluster.ShutdownSim()
	w.Snapshot() // first call, outside the measurement
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w.Snapshot()
	w.Reset() // restoring it materialises nothing either
	runtime.ReadMemStats(&after)
	// Register files, block lists and per-PE bookkeeping: about 1 KiB a PE.
	if delta := after.TotalAlloc - before.TotalAlloc; delta > 256*2048 {
		t.Errorf("capturing an image of a fresh 256-PE world and resetting it allocated %d bytes, more than 2 KiB per PE",
			delta)
	}
	materialised := func(when string) {
		t.Helper()
		for _, pe := range w.PEs() {
			if hs := pe.HeapStats(); hs.ResidentPages != 0 {
				t.Fatalf("pe %d: %s left %d symmetric heap page(s) materialised", pe.ID(), when, hs.ResidentPages)
			}
		}
		if r := w.Resident(); r.WindowBytes != 0 || r.StagingBytes != 0 {
			t.Fatalf("%s left %d window and %d staging byte(s) materialised", when, r.WindowBytes, r.StagingBytes)
		}
	}
	materialised("a fresh world's capture")
	for _, pe := range w.PEs() {
		if pe.heap.Chunks() != 0 {
			t.Fatalf("pe %d: a fresh world's capture grew the symmetric heap to %d chunk(s)", pe.ID(), pe.heap.Chunks())
		}
	}
	if err := w.RunKeep(func(p *sim.Proc, pe *PE) {}); err != nil {
		t.Fatal(err)
	}
	w.Snapshot()
	materialised("shmem_init")
}

func TestForkManyChildrenDiverge(t *testing.T) {
	// Several children forked from one snapshot run different futures;
	// each must match its own continuation reference, and later forks
	// must not see earlier children's writes.
	prefix := resetScript(5, 2, 6)
	futures := []func(p *sim.Proc, pe *PE){
		resetScript(100, 2, 4),
		resetScript(200, 1, 9),
		resetScript(300, 3, 3),
	}

	parent := newWorld(3, Options{})
	traceRun(t, parent, prefix)
	snap := parent.Snapshot()
	parent.Cluster.Sim.Shutdown()

	type result struct {
		trace []OpEvent
		end   sim.Time
		stats Stats
	}
	want := make([]result, len(futures))
	for i, fut := range futures {
		// Reference for each future: fresh world, prefix then future.
		ref := newWorld(3, Options{})
		traceRun(t, ref, prefix)
		trace, end, stats := traceRun(t, ref, fut)
		ref.Cluster.Sim.Shutdown()
		want[i] = result{trace, end, stats}
	}
	for i, fut := range futures {
		child := newWorld(3, Options{})
		child.Fork(snap)
		trace, end, stats := traceRun(t, child, fut)
		child.Cluster.Sim.Shutdown()
		if end != want[i].end || stats != want[i].stats {
			t.Errorf("future %d: end %v stats %+v, want %v %+v", i, end, stats, want[i].end, want[i].stats)
		}
		compareTraces(t, "divergent future", trace, want[i].trace)
	}
}

func TestForkAfterFork(t *testing.T) {
	// Snapshot a forked world mid-flight and fork again: the grandchild
	// must match the child's continuation exactly.
	prefix := resetScript(11, 2, 5)
	mid := resetScript(12, 2, 5)
	body := resetScript(13, 2, 5)

	parent := newWorld(3, Options{})
	traceRun(t, parent, prefix)
	snap1 := parent.Snapshot()
	parent.Cluster.Sim.Shutdown()

	child := newWorld(3, Options{})
	child.Fork(snap1)
	traceRun(t, child, mid)
	snap2 := child.Snapshot()
	wantTrace, wantEnd, wantStats := traceRun(t, child, body)
	child.Cluster.Sim.Shutdown()

	grand := newWorld(3, Options{})
	grand.Fork(snap2)
	gotTrace, gotEnd, gotStats := traceRun(t, grand, body)
	grand.Cluster.Sim.Shutdown()

	if gotEnd != wantEnd || gotStats != wantStats {
		t.Errorf("grandchild end %v stats %+v, child continuation %v %+v", gotEnd, gotStats, wantEnd, wantStats)
	}
	compareTraces(t, "fork-after-fork", gotTrace, wantTrace)
}

func TestForkThenReset(t *testing.T) {
	// A forked world must remain poolable: Reset returns it to t=0 and a
	// subsequent from-scratch run matches a fresh world byte-for-byte.
	prefix := resetScript(31, 2, 6)
	body := resetScript(32, 1, 6)
	replay := resetScript(33, 3, 4)

	parent := newWorld(3, Options{})
	traceRun(t, parent, prefix)
	snap := parent.Snapshot()
	parent.Cluster.Sim.Shutdown()

	w := newWorld(3, Options{})
	w.Fork(snap)
	traceRun(t, w, body)
	w.Reset()
	if now := w.Cluster.Sim.Now(); now != 0 {
		t.Fatalf("reset-after-fork world starts at t=%v, want 0", now)
	}
	gotTrace, gotEnd, gotStats := traceRun(t, w, replay)
	w.Cluster.Sim.Shutdown()

	fresh := newWorld(3, Options{})
	wantTrace, wantEnd, wantStats := traceRun(t, fresh, replay)
	fresh.Cluster.Sim.Shutdown()

	if gotEnd != wantEnd || gotStats != wantStats {
		t.Errorf("reset-after-fork end %v stats %+v, fresh %v %+v", gotEnd, gotStats, wantEnd, wantStats)
	}
	compareTraces(t, "fork-then-reset replay", gotTrace, wantTrace)
}

func TestForkIntoRecycledWorld(t *testing.T) {
	// The bench pool forks into recycled worlds, not fresh ones; a world
	// that already lived a different life must fork identically to a
	// fresh child.
	prefix := resetScript(41, 2, 6)
	body := resetScript(42, 2, 4)
	otherLife := resetScript(43, 3, 7)

	parent := newWorld(3, Options{})
	traceRun(t, parent, prefix)
	snap := parent.Snapshot()
	parent.Cluster.Sim.Shutdown()

	fresh := newWorld(3, Options{})
	fresh.Fork(snap)
	wantTrace, wantEnd, wantStats := traceRun(t, fresh, body)
	fresh.Cluster.Sim.Shutdown()

	recycled := newWorld(3, Options{})
	traceRun(t, recycled, otherLife)
	recycled.Reset()
	recycled.Fork(snap)
	gotTrace, gotEnd, gotStats := traceRun(t, recycled, body)
	recycled.Cluster.Sim.Shutdown()

	if gotEnd != wantEnd || gotStats != wantStats {
		t.Errorf("recycled fork end %v stats %+v, fresh fork %v %+v", gotEnd, gotStats, wantEnd, wantStats)
	}
	compareTraces(t, "fork into recycled world", gotTrace, wantTrace)
}

func TestForkShapeAsserts(t *testing.T) {
	parent := newWorld(3, Options{})
	traceRun(t, parent, resetScript(51, 1, 3))
	snap := parent.Snapshot()
	parent.Cluster.Sim.Shutdown()

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	w4 := newWorld(4, Options{})
	defer w4.Cluster.Sim.Shutdown()
	mustPanic("PE-count mismatch", func() { w4.Fork(snap) })

	wOpts := newWorld(3, Options{Pipeline: 4, Routing: RouteShortest})
	defer wOpts.Cluster.Sim.Shutdown()
	mustPanic("options mismatch", func() { wOpts.Fork(snap) })
}

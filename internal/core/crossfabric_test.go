package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fabric"
	"repro/internal/model"
	"repro/internal/sim"
)

// Cross-backend differential suite: the same OpenSHMEM programs run on
// every fabric backend. Timing is allowed — expected, even — to differ
// between fabrics; the runtime's semantic invariants (no lost or torn
// writes, atomic sums exact, barriers flush delivery, reset and fork
// equivalence) must not.

// newFabricWorld builds an n-host world over the given backend with the
// default profile.
func newFabricWorld(k fabric.Kind, n int, opts Options) *World {
	s := sim.New()
	c, err := fabric.New(fabric.Config{Sim: s, Par: model.Default(), Hosts: n, Kind: k})
	if err != nil {
		panic(err)
	}
	return NewWorld(c, opts)
}

// fabricCase is one backend at a host count it supports.
type fabricCase struct {
	kind fabric.Kind
	n    int
}

// newBackendCases lists the non-ring backends (the ring is the reference
// topology the rest of this package exercises) at representative sizes.
func newBackendCases() []fabricCase {
	return []fabricCase{
		{fabric.KindNTBPair, 2},
		{fabric.KindPCIeSwitch, 2},
		{fabric.KindPCIeSwitch, 4},
		{fabric.KindCXL, 2},
		{fabric.KindCXL, 4},
	}
}

func (fc fabricCase) name() string { return fmt.Sprintf("%s-n%d", fc.kind, fc.n) }

func TestCrossFabricPutIntegrity(t *testing.T) {
	for _, fc := range newBackendCases() {
		t.Run(fc.name(), func(t *testing.T) {
			w := newFabricWorld(fc.kind, fc.n, Options{})
			defer w.Cluster.Sim.Shutdown()
			const size = 100_000
			// Every PE puts a distinct pattern to its right neighbour; after
			// the barrier every PE must hold its left neighbour's bytes.
			want := make([][]byte, fc.n)
			for i := range want {
				want[i] = make([]byte, size)
				rand.New(rand.NewSource(int64(1000 + i))).Read(want[i])
			}
			got := make([][]byte, fc.n)
			err := w.RunKeep(func(p *sim.Proc, pe *PE) {
				sym := pe.MustMalloc(p, size)
				pe.BarrierAll(p) // shmem_malloc is collective; no put may race it
				pe.PutBytes(p, (pe.ID()+1)%pe.NumPEs(), sym, want[pe.ID()])
				pe.BarrierAll(p)
				got[pe.ID()] = make([]byte, size)
				pe.LocalRead(p, sym, got[pe.ID()])
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < fc.n; i++ {
				from := (i - 1 + fc.n) % fc.n
				if !bytes.Equal(got[i], want[from]) {
					t.Errorf("PE %d does not hold PE %d's put", i, from)
				}
			}
		})
	}
}

func TestCrossFabricGetIntegrity(t *testing.T) {
	for _, fc := range newBackendCases() {
		t.Run(fc.name(), func(t *testing.T) {
			w := newFabricWorld(fc.kind, fc.n, Options{})
			defer w.Cluster.Sim.Shutdown()
			const size = 60_000
			// Every PE fills its symmetric region with its own pattern, then
			// every PE gets from every peer and verifies in place.
			err := w.RunKeep(func(p *sim.Proc, pe *PE) {
				sym := pe.MustMalloc(p, size)
				mine := make([]byte, size)
				rand.New(rand.NewSource(int64(2000 + pe.ID()))).Read(mine)
				pe.LocalWrite(p, sym, mine)
				pe.BarrierAll(p)
				buf := make([]byte, size)
				for peer := 0; peer < pe.NumPEs(); peer++ {
					pe.GetBytes(p, peer, sym, buf)
					theirs := make([]byte, size)
					rand.New(rand.NewSource(int64(2000 + peer))).Read(theirs)
					if !bytes.Equal(buf, theirs) {
						panic(fmt.Sprintf("PE %d read corrupt data from PE %d", pe.ID(), peer))
					}
				}
				pe.BarrierAll(p)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCrossFabricAtomicSum is the no-lost-writes invariant under
// contention: every PE atomically adds to one counter on PE 0; the sum
// must be exact on every backend, including CXL, whose inline delivery
// serialises on the target's home agent rather than a service thread.
func TestCrossFabricAtomicSum(t *testing.T) {
	for _, fc := range newBackendCases() {
		t.Run(fc.name(), func(t *testing.T) {
			w := newFabricWorld(fc.kind, fc.n, Options{})
			defer w.Cluster.Sim.Shutdown()
			const addsPerPE = 50
			var got int64
			err := w.RunKeep(func(p *sim.Proc, pe *PE) {
				ctr := pe.MustMalloc(p, 8)
				pe.BarrierAll(p)
				for i := 0; i < addsPerPE; i++ {
					pe.AddInt64(p, 0, ctr, int64(pe.ID()*addsPerPE+i+1))
				}
				pe.BarrierAll(p)
				if pe.ID() == 0 {
					raw := make([]byte, 8)
					pe.LocalRead(p, ctr, raw)
					got = int64(binary.NativeEndian.Uint64(raw))
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			var want int64
			for id := 0; id < fc.n; id++ {
				for i := 0; i < addsPerPE; i++ {
					want += int64(id*addsPerPE + i + 1)
				}
			}
			if got != want {
				t.Errorf("atomic sum = %d, want %d (writes lost)", got, want)
			}
		})
	}
}

// TestCrossFabricBarrierFlushes checks barrier safety: BarrierAll must
// not complete while a put is still in flight, on native-barrier
// fabrics (pair) and dissemination-fallback fabrics (switch, CXL) alike.
func TestCrossFabricBarrierFlushes(t *testing.T) {
	for _, fc := range newBackendCases() {
		t.Run(fc.name(), func(t *testing.T) {
			w := newFabricWorld(fc.kind, fc.n, Options{})
			defer w.Cluster.Sim.Shutdown()
			const rounds, size = 5, 32_000
			err := w.RunKeep(func(p *sim.Proc, pe *PE) {
				sym := pe.MustMalloc(p, size)
				buf := make([]byte, size)
				pe.BarrierAll(p)
				for r := 0; r < rounds; r++ {
					for i := range buf {
						buf[i] = byte(r + pe.ID())
					}
					pe.PutBytes(p, (pe.ID()+1)%pe.NumPEs(), sym, buf)
					pe.BarrierAll(p)
					// After the barrier the left neighbour's round-r bytes
					// must be fully visible.
					left := (pe.ID() - 1 + pe.NumPEs()) % pe.NumPEs()
					chk := make([]byte, size)
					pe.LocalRead(p, sym, chk)
					for i, b := range chk {
						if b != byte(r+left) {
							panic(fmt.Sprintf("PE %d round %d byte %d = %d, want %d: barrier did not flush delivery",
								pe.ID(), r, i, b, byte(r+left)))
						}
					}
					pe.BarrierAll(p)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCrossFabricShapesDiffer pins the point of having backends at all:
// the same 2-host workload completes at different virtual times on the
// pair, the switch, and the CXL window, because their cost models are
// genuinely different (doorbell service vs core contention vs
// synchronous load/store completion).
func TestCrossFabricShapesDiffer(t *testing.T) {
	times := map[fabric.Kind]sim.Time{}
	for _, k := range []fabric.Kind{fabric.KindNTBPair, fabric.KindPCIeSwitch, fabric.KindCXL} {
		w := newFabricWorld(k, 2, Options{})
		const size = 256 << 10
		err := w.RunKeep(func(p *sim.Proc, pe *PE) {
			sym := pe.MustMalloc(p, size)
			pe.BarrierAll(p)
			if pe.ID() == 0 {
				pe.PutBytes(p, 1, sym, make([]byte, size))
			}
			pe.BarrierAll(p)
		})
		if err != nil {
			t.Fatal(err)
		}
		times[k] = w.Cluster.Sim.Now()
		w.Cluster.Sim.Shutdown()
	}
	kinds := []fabric.Kind{fabric.KindNTBPair, fabric.KindPCIeSwitch, fabric.KindCXL}
	for i, a := range kinds {
		for _, b := range kinds[i+1:] {
			if times[a] == times[b] {
				t.Errorf("%s and %s complete at the same virtual time %v; cost models not distinct", a, b, times[a])
			}
		}
	}
}

// TestCrossFabricResetEquivalence holds the world-pool contract on the
// new backends: a reset world replays a workload bit-identically to a
// fresh one.
func TestCrossFabricResetEquivalence(t *testing.T) {
	for _, fc := range newBackendCases() {
		t.Run(fc.name(), func(t *testing.T) {
			first := resetScript(17, 3, 6)
			second := resetScript(42, 4, 5)

			recycled := newFabricWorld(fc.kind, fc.n, Options{})
			traceRun(t, recycled, first)
			recycled.Reset()
			gotTrace, gotEnd, gotStats := traceRun(t, recycled, second)
			recycled.Cluster.Sim.Shutdown()

			fresh := newFabricWorld(fc.kind, fc.n, Options{})
			wantTrace, wantEnd, wantStats := traceRun(t, fresh, second)
			fresh.Cluster.Sim.Shutdown()

			if gotEnd != wantEnd {
				t.Errorf("completion time: recycled %v, fresh %v", gotEnd, wantEnd)
			}
			if gotStats != wantStats {
				t.Errorf("pe 0 stats: recycled %+v, fresh %+v", gotStats, wantStats)
			}
			compareTraces(t, "reset vs fresh", gotTrace, wantTrace)
		})
	}
}

// TestCrossFabricForkEquivalence holds the prefix-cache contract on the
// new backends: a forked child runs the snapshot's future bit-identically
// to the captured world continuing in place.
func TestCrossFabricForkEquivalence(t *testing.T) {
	for _, fc := range newBackendCases() {
		t.Run(fc.name(), func(t *testing.T) {
			prefix := resetScript(23, 3, 6)
			body := resetScript(61, 2, 5)

			ref := newFabricWorld(fc.kind, fc.n, Options{})
			traceRun(t, ref, prefix)
			snap := ref.Snapshot()
			wantTrace, wantEnd, wantStats := traceRun(t, ref, body)
			ref.Cluster.Sim.Shutdown()

			child := newFabricWorld(fc.kind, fc.n, Options{})
			child.Fork(snap)
			gotTrace, gotEnd, gotStats := traceRun(t, child, body)
			child.Cluster.Sim.Shutdown()

			if gotEnd != wantEnd {
				t.Errorf("completion time: fork %v, continuation %v", gotEnd, wantEnd)
			}
			if gotStats != wantStats {
				t.Errorf("pe 0 stats: fork %+v, continuation %+v", gotStats, wantStats)
			}
			compareTraces(t, "fork vs continuation", gotTrace, wantTrace)
		})
	}
}

// TestCrossFabricDeterminism re-runs the same workload on two fresh
// worlds per backend and requires identical op traces and end times.
func TestCrossFabricDeterminism(t *testing.T) {
	for _, fc := range newBackendCases() {
		t.Run(fc.name(), func(t *testing.T) {
			script := resetScript(99, 3, 7)
			var traces [2][]OpEvent
			var ends [2]sim.Time
			for run := 0; run < 2; run++ {
				w := newFabricWorld(fc.kind, fc.n, Options{})
				traces[run], ends[run], _ = traceRun(t, w, script)
				w.Cluster.Sim.Shutdown()
			}
			if ends[0] != ends[1] {
				t.Errorf("end times differ: %v vs %v", ends[0], ends[1])
			}
			compareTraces(t, "run 0 vs run 1", traces[1], traces[0])
		})
	}
}

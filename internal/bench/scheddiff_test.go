package bench

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/fabric"
	"repro/internal/model"
	"repro/internal/sim"
)

// Black-box scheduler differential: the same seeded multi-process
// workload must produce the identical dispatch trace — which process
// ran, at what virtual time, in what order — under the ladder queue and
// the reference heap. This is the whole-simulator complement to the
// queue-level property test in internal/sim.

type dispatchEntry struct {
	proc int
	step int
	now  sim.Time
}

// schedTrace runs nProcs processes of steps seeded sleep/yield rounds
// on s, shuts it down and returns the dispatch trace. Sleeps mix zero
// (same-timestamp ties through the ready FIFO), short, and long horizons
// so events cross every queue tier.
func schedTrace(s *sim.Simulator, seed int64, nProcs, steps int, reset bool) []dispatchEntry {
	spawn := func(tr *[]dispatchEntry) {
		for i := 0; i < nProcs; i++ {
			i := i
			rng := SeededRNG(seed + int64(i)*intsortStride)
			s.Go(fmt.Sprintf("p%d", i), func(p *sim.Proc) {
				for step := 0; step < steps; step++ {
					var d sim.Duration
					switch rng.Intn(4) {
					case 0:
						d = 0 // tie: exercises same-timestamp FIFO order
					case 1:
						d = sim.Duration(rng.Int63n(100))
					case 2:
						d = sim.Duration(rng.Int63n(50_000))
					default:
						d = sim.Duration(rng.Int63n(10_000_000))
					}
					p.Sleep(d)
					*tr = append(*tr, dispatchEntry{i, step, p.Now()})
				}
			})
		}
	}
	var tr []dispatchEntry
	spawn(&tr)
	if err := s.Run(); err != nil {
		panic(err)
	}
	if reset {
		// Rerun the identical workload on the reset simulator; the
		// second trace replaces the first and must match a fresh run.
		s.Reset()
		tr = tr[:0]
		spawn(&tr)
		if err := s.Run(); err != nil {
			panic(err)
		}
	}
	s.Shutdown()
	return tr
}

func diffTraces(t *testing.T, label string, want, got []dispatchEntry) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: trace length %d vs %d", label, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: dispatch %d diverged: %+v vs %+v", label, i, want[i], got[i])
		}
	}
}

func TestSchedulersDispatchIdentically(t *testing.T) {
	for _, seed := range []int64{1, 7, 99} {
		ladder := schedTrace(sim.NewWith(sim.SchedulerLadder), seed, 12, 400, false)
		heap := schedTrace(sim.NewWith(sim.SchedulerHeap), seed, 12, 400, false)
		diffTraces(t, fmt.Sprintf("seed %d ladder-vs-heap", seed), heap, ladder)
	}
}

func TestSchedulerResetRerunEquivalence(t *testing.T) {
	for _, kind := range []sim.SchedulerKind{sim.SchedulerLadder, sim.SchedulerHeap} {
		fresh := schedTrace(sim.NewWith(kind), 42, 8, 300, false)
		rerun := schedTrace(sim.NewWith(kind), 42, 8, 300, true)
		diffTraces(t, fmt.Sprintf("%v reset-rerun", kind), fresh, rerun)
	}
}

// Kernel-level dispatch golden. The channel-handoff kernel these digests
// were recorded on (commit 5fa796e, the parent of the coroutine kernel)
// no longer exists, so its dispatch order is pinned as recorded values
// rather than compared against a second code path: each is the SHA-256
// of the (t, seq, kind, process name) stream sim.TraceDispatch reports,
// which covers events a process consumes inline in park as well as those
// the run loop dispatches.
var dispatchGolden = map[string]string{
	"sched/seed=1":  "b3e67c26add50e3339d9b5931e943f4e8be6c592a21d3bbdc607ed7577a04132",
	"sched/seed=7":  "afafc4de84166b81a47c4b5e66ba32a2710968df3650cc4e9d3a22fe8e8957f5",
	"sched/seed=99": "d8cd2fc0f179dd6af8901e185afc232dadb2e9b9589339c6b043f1af69fed4bd",
	"scale/n=16":    "0d366fa753984ba87029845160c73d1d20dce1a6b499f02a40b98907508ec5f3",
}

// digestSim returns a simulator of the given kind and a function that
// reports the digest of everything it has dispatched so far.
func digestSim(kind sim.SchedulerKind) (*sim.Simulator, func() string) {
	s := sim.NewWith(kind)
	h := sha256.New()
	var rec [17]byte
	s.TraceDispatch(func(t sim.Time, seq uint64, kind byte, proc string) {
		binary.LittleEndian.PutUint64(rec[0:], uint64(t))
		binary.LittleEndian.PutUint64(rec[8:], seq)
		rec[16] = kind
		h.Write(rec[:])
		h.Write([]byte(proc))
		h.Write([]byte{0})
	})
	return s, func() string { return hex.EncodeToString(h.Sum(nil)) }
}

func TestDispatchTraceGolden(t *testing.T) {
	for _, kind := range []sim.SchedulerKind{sim.SchedulerLadder, sim.SchedulerHeap} {
		got := map[string]string{}
		for _, seed := range []int64{1, 7, 99} {
			s, digest := digestSim(kind)
			schedTrace(s, seed, 12, 400, false)
			got[fmt.Sprintf("sched/seed=%d", seed)] = digest()
		}

		// One 16-PE scaling world, construction and shmem_init included.
		s, digest := digestSim(kind)
		c, err := fabric.New(fabric.Config{Sim: s, Par: model.Default(), Hosts: 16, Kind: fabric.KindNTBRing})
		if err != nil {
			t.Fatal(err)
		}
		var end sim.Time
		w := core.NewWorld(c, core.Options{Mode: driver.ModeCPU})
		if err := w.Run(scaleBody(4096, &end)); err != nil {
			t.Fatal(err)
		}
		got["scale/n=16"] = digest()

		for name, want := range dispatchGolden {
			if got[name] != want {
				t.Errorf("%v %s: dispatch digest %s, recorded %s", kind, name, got[name], want)
			}
		}
	}
}

// TestThousandPEWorld is the scaling acceptance check: a 1024-PE ring
// world constructs, runs the scaling workload, resets, and recycles
// through the world pool.
func TestThousandPEWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-PE world in -short mode")
	}
	DrainWorldPool()
	h0, m0 := WorldPoolStats()
	ScaleWorkload(model.Default(), 1024, 1024)
	ScaleWorkload(model.Default(), 1024, 1024)
	h1, m1 := WorldPoolStats()
	if h1-h0 < 1 {
		t.Errorf("second 1024-PE run missed the pool (hits %d, misses %d): PE budget rejects big worlds", h1-h0, m1-m0)
	}
	DrainWorldPool()
}

// BenchmarkScaleWorld256 runs the scaling workload on a pooled 256-PE
// ring world per op and reports engine throughput as events/s. The
// benchgate floor on that metric is the scaling guard: it fails CI if
// per-event dispatch cost at 256 PEs regresses by an order of
// magnitude (a super-linear scheduler would).
func BenchmarkScaleWorld256(b *testing.B) {
	DrainWorldPool()
	par := model.Default()
	ScaleWorkload(par, 256, 4096) // build + pool the world outside the timer
	e0 := VirtualEvents()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScaleWorkload(par, 256, 4096)
	}
	b.StopTimer()
	b.ReportMetric(float64(VirtualEvents()-e0)/b.Elapsed().Seconds(), "events/s")
	DrainWorldPool()
}

package bench

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/fabric"
	"repro/internal/model"
	"repro/internal/sim"
)

// Black-box kernel checks from outside internal/sim: a seeded
// multi-process workload replays identically on a rewound simulator, and
// its dispatch order — which process ran, at what virtual time, in what
// order — matches the recorded digests. The ladder-vs-reference-heap
// differentials live in internal/sim (ladder_test.go, heap_test.go),
// next to the only code that can put a simulator on the heap.

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

func TestSchedulerResetRerunEquivalence(t *testing.T) {
	fresh := schedTrace(sim.New(), 42, 8, 300, false)
	rerun := schedTrace(sim.New(), 42, 8, 300, true)
	diffTraces(t, "reset-rerun", fresh, rerun)
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

// digestSim returns a simulator and a function that reports the digest
// of everything it has dispatched so far.
func digestSim() (*sim.Simulator, func() string) {
	s := sim.New()
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
	got := map[string]string{}
	for _, seed := range []int64{1, 7, 99} {
		s, digest := digestSim()
		schedTrace(s, seed, 12, 400, false)
		got[fmt.Sprintf("sched/seed=%d", seed)] = digest()
	}

	// One 16-PE scaling world, construction and shmem_init included.
	s, digest := digestSim()
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
			t.Errorf("%s: dispatch digest %s, recorded %s", name, got[name], want)
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
	ScaleWorkloadTime(model.Default(), 1024, 1024)
	ScaleWorkloadTime(model.Default(), 1024, 1024)
	h1, m1 := WorldPoolStats()
	if h1-h0 < 1 {
		t.Errorf("second 1024-PE run missed the pool (hits %d, misses %d): PE budget rejects big worlds", h1-h0, m1-m0)
	}
	DrainWorldPool()
}

// BenchmarkScaleWorld256 runs the scaling workload on a pooled 256-PE
// ring world per op and reports engine throughput as events/s (the
// repository benchmark's ring256 workload gates that rate). Its B/op and
// allocs/op are what a recycled 256-PE world costs the allocator per run;
// TestBenchCeilings fails if restoring a pooled world goes back to
// re-backing what it reserves, or its PE processes go back to starting
// goroutines instead of resuming the last run's idle coroutines.
func BenchmarkScaleWorld256(b *testing.B) {
	DrainWorldPool()
	par := model.Default()
	ScaleWorkloadTime(par, 256, 4096) // build + pool the world outside the timer
	e0 := VirtualEvents()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScaleWorkloadTime(par, 256, 4096)
	}
	b.StopTimer()
	b.ReportMetric(float64(VirtualEvents()-e0)/b.Elapsed().Seconds(), "events/s")
	DrainWorldPool()
}

// TestBenchCeilings holds the machine-independent ceilings of this
// package's benchmarks: a pooled 256-PE scaling run stays under
// 60 000 B/op and 1 500 allocs/op (it measures ≈ 32 300 and 637; with a
// goroutine started per PE process per run it measured ≈ 134 000 and
// 4 121), a forked sweep point under 200 allocs/op (≈ 166), a 512 KiB
// Fig 9 put cell under 2 000 B/op (it measures ≈ 500; with its source a
// fresh zeroed buffer it measured ≈ 530 300, with one per PE
// ≈ 1 579 000), and the A5 broadcast figure under 8 000 000 B/op (it
// measures ≈ 4 720 000, the relay chunks that share a page with the
// signal word; with the root and relays copying zeros into fresh
// buffers it measured ≈ 27 100 000). Per-op values are floats:
// BenchmarkResult.AllocsPerOp truncates.
func TestBenchCeilings(t *testing.T) {
	if testing.Short() {
		t.Skip("four one-second benchmark runs in -short mode")
	}
	if raceEnabled() {
		t.Skip("the race detector's instrumentation allocates, and slows each op until one-time construction no longer amortises within the benchmark's second")
	}
	r := testing.Benchmark(BenchmarkScaleWorld256)
	if got := float64(r.MemBytes) / float64(r.N); got > 60_000 {
		t.Errorf("BenchmarkScaleWorld256: %.0f B/op, ceiling 60000", got)
	}
	if got := float64(r.MemAllocs) / float64(r.N); got > 1500 {
		t.Errorf("BenchmarkScaleWorld256: %.1f allocs/op, ceiling 1500", got)
	}
	r = testing.Benchmark(BenchmarkWorldFork)
	if got := float64(r.MemAllocs) / float64(r.N); got > 200 {
		t.Errorf("BenchmarkWorldFork: %.1f allocs/op, ceiling 200", got)
	}
	r = testing.Benchmark(BenchmarkMeasureShmemOp)
	if got := float64(r.MemBytes) / float64(r.N); got > 2_000 {
		t.Errorf("BenchmarkMeasureShmemOp: %.0f B/op, ceiling 2000", got)
	}
	r = testing.Benchmark(BenchmarkAblationBroadcast)
	if got := float64(r.MemBytes) / float64(r.N); got > 8_000_000 {
		t.Errorf("BenchmarkAblationBroadcast: %.0f B/op, ceiling 8000000", got)
	}
}

// raceEnabled reports whether this test binary was built with -race,
// read from its build settings.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

package core

import (
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/sim"
)

// BenchmarkWorldSpawnTeardown measures the full host-side cost of one
// experiment cell: build a 3-host ring world, run shmem_init plus a
// barrier on every PE, and tear the simulator down. The experiment
// harness pays exactly this per measurement point, so it bounds how
// fast figure sweeps can go.
func BenchmarkWorldSpawnTeardown(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := newWorld(3, Options{})
		if err := w.Run(func(p *sim.Proc, pe *PE) {
			pe.BarrierAll(p)
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "worlds/s")
}

// BenchmarkWorldBuild256 is BenchmarkWorldSpawnTeardown at the scaling
// target: build a 256-PE ring world, run shmem_init, shut it down. Its
// B/op is what one cold 256-PE world costs the allocator, and
// TestBenchCeilings fails if construction or init goes back to backing
// what it reserves (eager 4 MiB heap chunks put it at 1.3 GiB).
func BenchmarkWorldBuild256(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := newWorld(256, Options{})
		if err := w.Run(func(p *sim.Proc, pe *PE) {}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorldPut1M measures b.N barrier-fenced 1 MiB puts — ~32
// protocol chunks each at the default PutChunk — inside one standing
// 3-host world. It is the transfer-path macro benchmark: with world
// construction amortised away, allocs/op tracks the whole stack's
// per-chunk SendChunk/DMA/flow-solver allocation cost.
func BenchmarkWorldPut1M(b *testing.B) {
	const size = 1 << 20
	buf := make([]byte, size)
	b.ReportAllocs()
	b.ResetTimer()
	w := newWorld(3, Options{})
	if err := w.Run(func(p *sim.Proc, pe *PE) {
		sym := pe.MustMalloc(p, size)
		pe.BarrierAll(p)
		for i := 0; i < b.N; i++ {
			if pe.ID() == 0 {
				pe.PutBytes(p, 1, sym, buf)
			}
			pe.BarrierAll(p)
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkWorldPut64K measures one warm 64KiB put on a standing world
// pattern: world build + barrier + put per iteration, the inner loop of
// the Fig 9 sweeps.
func BenchmarkWorldPut64K(b *testing.B) {
	const size = 64 << 10
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := newWorld(3, Options{})
		if err := w.Run(func(p *sim.Proc, pe *PE) {
			sym := pe.MustMalloc(p, size)
			buf := make([]byte, size)
			pe.BarrierAll(p)
			if pe.ID() == 0 {
				pe.PutBytes(p, 1, sym, buf)
			}
			pe.BarrierAll(p)
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBenchCeilings holds the machine-independent ceilings of this
// package's benchmarks: the whole transfer stack adds at most one
// allocation per barrier-fenced 1 MiB put once world construction is
// amortised (it measures ≈ 0.09 allocs/op, all of it construction), and
// a cold 256-PE world costs the allocator at most 2.06 MB and 38 600
// allocations (≈ 2.018 MB and 37 880: shmem_init starts none of its
// service threads, forwarders or DMA engines, and each port's requester-ID
// LUT is an array; spawning all 1 024 at construction read 3.09 MB and
// 56 000, and a map per LUT reads 2.067 MB and 38 900).
// Per-op values are floats: BenchmarkResult.AllocsPerOp truncates.
func TestBenchCeilings(t *testing.T) {
	if testing.Short() {
		t.Skip("two one-second benchmark runs in -short mode")
	}
	if raceEnabled() {
		t.Skip("the race detector's instrumentation allocates, and slows each op until one-time construction no longer amortises within the benchmark's second")
	}
	r := testing.Benchmark(BenchmarkWorldPut1M)
	if got := float64(r.MemAllocs) / float64(r.N); got > 1 {
		t.Errorf("BenchmarkWorldPut1M: %.3f allocs/op, ceiling 1", got)
	}
	r = testing.Benchmark(BenchmarkWorldBuild256)
	if got := float64(r.MemBytes) / float64(r.N); got > 2.06e6 {
		t.Errorf("BenchmarkWorldBuild256: %.0f B/op, ceiling 2.06e6", got)
	}
	if got := float64(r.MemAllocs) / float64(r.N); got > 38_600 {
		t.Errorf("BenchmarkWorldBuild256: %.0f allocs/op, ceiling 38600", got)
	}
}

// raceEnabled reports whether this test binary was built with -race,
// read from its build settings.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

package core

import (
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/fabric"
	"repro/internal/model"
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

// TestConstructionAllocations holds world construction — fabric.NewRing
// plus NewWorld, before any run — to a fixed number of allocations
// whatever the host count: hosts, ports, endpoints, channels, cables,
// links, PEs and heaps are each one slab per world, primitives are
// embedded by value, and nothing is named until asked. It reads 21 at
// 3 hosts and at 256 (25 under -race; it read 383 and 31 951 with about
// 125 objects per host), so one allocation seeded per host fails the
// 256-host case.
func TestConstructionAllocations(t *testing.T) {
	par := model.Default()
	for _, n := range []int{3, 256} {
		allocs := testing.AllocsPerRun(10, func() {
			c, err := fabric.NewRing(sim.New(), par, n)
			if err != nil {
				t.Fatal(err)
			}
			NewWorld(c, Options{})
		})
		if allocs > 30 {
			t.Errorf("building a %d-host ring world made %.0f allocations, ceiling 30", n, allocs)
		}
	}
}

// TestBenchCeilings holds the machine-independent ceilings of this
// package's benchmarks: the whole transfer stack adds at most one
// allocation per barrier-fenced 1 MiB put once world construction is
// amortised (it measures ≈ 0.09 allocs/op, all of it construction); a
// cold 256-PE world costs the allocator at most 1.6 MB and 5 900
// allocations (≈ 1.509 MB and 5 708, nearly all of them shmem_init's
// processes: construction is a few slabs, and one allocation seeded per
// host reads 5 964; 125 objects per host read 2.035 MB and 37 880, and
// spawning all 1 024 reactors at construction 3.09 MB and 56 000); and
// a 3-host world built, booted, barriered and torn down costs at most
// 20 000 B and 100 allocations (≈ 18 800 and 97; 35 600 and 455 with
// 125 objects per host).
// Per-op values are floats: BenchmarkResult.AllocsPerOp truncates.
func TestBenchCeilings(t *testing.T) {
	if testing.Short() {
		t.Skip("three one-second benchmark runs in -short mode")
	}
	if raceEnabled() {
		t.Skip("the race detector's instrumentation allocates, and slows each op until one-time construction no longer amortises within the benchmark's second")
	}
	r := testing.Benchmark(BenchmarkWorldPut1M)
	if got := float64(r.MemAllocs) / float64(r.N); got > 1 {
		t.Errorf("BenchmarkWorldPut1M: %.3f allocs/op, ceiling 1", got)
	}
	r = testing.Benchmark(BenchmarkWorldBuild256)
	if got := float64(r.MemBytes) / float64(r.N); got > 1.6e6 {
		t.Errorf("BenchmarkWorldBuild256: %.0f B/op, ceiling 1.6e6", got)
	}
	if got := float64(r.MemAllocs) / float64(r.N); got > 5_900 {
		t.Errorf("BenchmarkWorldBuild256: %.0f allocs/op, ceiling 5900", got)
	}
	r = testing.Benchmark(BenchmarkWorldSpawnTeardown)
	if got := float64(r.MemBytes) / float64(r.N); got > 20_000 {
		t.Errorf("BenchmarkWorldSpawnTeardown: %.0f B/op, ceiling 20000", got)
	}
	if got := float64(r.MemAllocs) / float64(r.N); got > 100 {
		t.Errorf("BenchmarkWorldSpawnTeardown: %.1f allocs/op, ceiling 100", got)
	}
}

// raceEnabled reports whether this test binary was built with -race,
// read from its build settings.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

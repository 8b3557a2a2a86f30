package core

import (
	"bytes"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/driver"
	"repro/internal/fabric"
	"repro/internal/mem"
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

// TestPooledRingFootprint holds what a pooled 256-PE memcpy-mode ring
// keeps live between runs — the world the benchmark's ring256 workload
// recycles: built, run once (three 4 KiB neighbour puts per PE between
// two barriers) and checked in (ReturnStorage). Its post-GC heap is the
// slabs of hosts, ports, endpoints, channels, cables, links, PEs and
// heaps, plus the coroutines of the PE bodies and service threads that
// run started. Each optional part is built on first use — a port's DMA
// engine, a host's forwarder — or only for the worlds that use it — a
// shortest-arc ring's leftward token path, the switch mesh — so this
// world holds none of them, and its ports' windows are translations
// that hold no bytes. It reads about 4 450 B per PE (4 615 under -race);
// with every part built eagerly it read 6 180, and with a storage engine
// in every window 4 800.
func TestPooledRingFootprint(t *testing.T) {
	const n, putBytes, ceiling = 256, 4096, 4_700 // ceiling in B per PE
	body := func(p *sim.Proc, pe *PE) {
		sym := pe.MustMalloc(p, putBytes)
		pe.BarrierAll(p)
		for range 3 {
			pe.PutBytes(p, (pe.ID()+1)%n, sym, mem.Zeros(putBytes))
		}
		pe.BarrierAll(p)
	}
	pooled := func() *World {
		w := newWorld(n, Options{Mode: driver.ModeCPU})
		if err := w.RunKeep(body); err != nil {
			t.Fatal(err)
		}
		w.ReturnStorage()
		return w
	}
	// The first worlds leave the runtime holding what later ones reuse
	// (goroutine records above all), so the reading is the least of
	// three worlds built after a first.
	pooled().Cluster.ShutdownSim()
	perPE := math.Inf(1)
	for range 3 {
		mem.DrainLender()
		before := liveHeap()
		w := pooled()
		perPE = min(perPE, float64(liveHeap()-before)/n)
		w.Cluster.ShutdownSim()
	}
	if perPE > ceiling {
		t.Errorf("a pooled %d-PE memcpy ring keeps %.0f B per PE live, ceiling %d", n, perPE, ceiling)
	}
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestRelayedPutAllocatesNothing holds the store-and-forward path to zero
// allocations once it is warm: PE 0 puts to PE 2, two hops rightward,
// so host 1's service thread stages every chunk (a pooled staging
// buffer) and its forwarder pushes it on. The staged chunk travels the
// forwarder's queue by value; one fwdMsg allocated per relayed chunk
// reads 3 allocations per put here.
func TestRelayedPutAllocatesNothing(t *testing.T) {
	const size = 2<<15 + 100 // two full put chunks and a partial one
	// settle is long enough for the last chunk to be relayed, copied
	// into PE 2's heap and acknowledged before the next put starts.
	const settle = 2 * sim.Millisecond
	buf := make([]byte, size)
	for i := range buf {
		buf[i] = byte(i%251 + 1)
	}
	for _, mode := range []driver.Mode{driver.ModeDMA, driver.ModeCPU} {
		t.Run(mode.String(), func(t *testing.T) {
			w := newWorld(3, Options{Mode: mode})
			err := w.Run(func(p *sim.Proc, pe *PE) {
				sym := pe.MustMalloc(p, size)
				pe.BarrierAll(p)
				if pe.ID() == 0 {
					put := func() {
						pe.PutBytes(p, 2, sym, buf)
						p.Sleep(settle)
					}
					put() // build the forwarder and warm its queue, the staging pool and PE 2's heap
					before := w.pes[1].Stats().ChunksForwarded
					if allocs := testing.AllocsPerRun(20, put); allocs != 0 {
						t.Errorf("%.1f allocations per 2-hop put relayed by PE 1, want 0", allocs)
					}
					// AllocsPerRun's own warm-up, then twenty runs, three chunks each.
					if got := w.pes[1].Stats().ChunksForwarded - before; got != 21*3 {
						t.Errorf("PE 1 relayed %d chunks in 21 puts, want %d", got, 21*3)
					}
				}
				pe.BarrierAll(p)
				if pe.ID() == 2 {
					got := make([]byte, size)
					pe.LocalRead(p, sym, got)
					if !bytes.Equal(got, buf) {
						t.Error("the relayed puts did not land in PE 2's heap")
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBenchCeilings holds the machine-independent ceilings of this
// package's benchmarks: the whole transfer stack adds at most one
// allocation per barrier-fenced 1 MiB put once world construction is
// amortised (it measures ≈ 0.09 allocs/op, all of it construction); a
// cold 256-PE world costs the allocator at most 1.2 MB and 5 900
// allocations (≈ 1.157 MB and 5 708, nearly all of them shmem_init's
// processes: construction is a few slabs, and one allocation seeded per
// host reads 5 964; with every DMA engine, forwarder, leftward token
// path and 16-vector handler table built eagerly it read 1.509 MB, 125
// objects per host read 2.035 MB and 37 880, and spawning all 1 024
// reactors at construction 3.09 MB and 56 000); and a 3-host world
// built, booted, barriered and torn down costs at most 14 500 B and 100
// allocations (≈ 13 900 and 97; 18 800 with every part built eagerly,
// 35 600 and 455 with 125 objects per host).
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
	if got := float64(r.MemBytes) / float64(r.N); got > 1.2e6 {
		t.Errorf("BenchmarkWorldBuild256: %.0f B/op, ceiling 1.2e6", got)
	}
	if got := float64(r.MemAllocs) / float64(r.N); got > 5_900 {
		t.Errorf("BenchmarkWorldBuild256: %.0f allocs/op, ceiling 5900", got)
	}
	r = testing.Benchmark(BenchmarkWorldSpawnTeardown)
	if got := float64(r.MemBytes) / float64(r.N); got > 14_500 {
		t.Errorf("BenchmarkWorldSpawnTeardown: %.0f B/op, ceiling 14500", got)
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

package bench

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sim"
)

// measuredPoint runs one 3-host sweep point through runRingWorld and
// returns a barrier-delimited duration measured on PE 0 — the same
// post-warm-up measurement shape every figure uses, so it must be
// byte-identical between the fork and replay paths.
func measuredPoint(par *model.Params, bytes int) sim.Duration {
	var dur sim.Duration
	runRingWorld(fmt.Sprintf("fork-test:%d", bytes), par, 3, core.Options{}, func(p *sim.Proc, pe *core.PE) {
		sym := pe.MustMalloc(p, 4096)
		pe.BarrierAll(p)
		start := p.Now()
		if pe.ID() == 0 {
			pe.PutBytes(p, 1, sym, make([]byte, bytes))
		}
		pe.BarrierAll(p)
		if pe.ID() == 0 {
			dur = p.Now().Sub(start)
		}
	})
	return dur
}

func TestForkMatchesReplay(t *testing.T) {
	if !forkOn.Load() {
		t.Fatal("world forking should be enabled by default")
	}
	par := model.Default()
	sizes := []int{256, 1024, 3000}

	SetWorldFork(false)
	DrainWorldPool()
	want := make([]sim.Duration, len(sizes))
	for i, b := range sizes {
		want[i] = measuredPoint(par, b)
	}

	SetWorldFork(true)
	DrainWorldPool()
	for i, b := range sizes {
		if got := measuredPoint(par, b); got != want[i] {
			t.Errorf("%d-byte point: fork path measured %v, replay path %v", b, got, want[i])
		}
	}
}

func TestForkCacheServesRepeatPoints(t *testing.T) {
	SetWorldFork(true)
	DrainSnapshots()
	DrainWorldPool()
	par := model.Default()

	f0, b0, s0 := ForkStats()
	measuredPoint(par, 512)
	f1, b1, s1 := ForkStats()
	if f1 != f0+1 || b1 != b0+1 {
		t.Fatalf("cold point: forks %d->%d builds %d->%d, want one of each", f0, f1, b0, b1)
	}
	measuredPoint(par, 768)
	f2, b2, s2 := ForkStats()
	if f2 != f1+1 || b2 != b1 {
		t.Fatalf("warm point: forks %d->%d builds %d->%d, want a fork and no build", f1, f2, b1, b2)
	}
	if s1 <= s0 || s2 <= s1 {
		t.Fatalf("events-saved did not advance: %d -> %d -> %d", s0, s1, s2)
	}
}

func TestForkCacheDetectsMutatedParams(t *testing.T) {
	// The PR 3 stale-params scenario, fork edition: a sweep reusing one
	// params clone mutates it between points. The snapshot key carries
	// the params by value, so the mutated point must capture a new
	// prefix — never fork the stale one — and still measure exactly what
	// the replay path measures for the mutated params.
	SetWorldFork(true)
	DrainSnapshots()
	DrainWorldPool()
	par := model.Default().Clone()

	measuredPoint(par, 512)
	par.PutChunk *= 2
	_, b0, _ := ForkStats()
	got := measuredPoint(par, 512)
	_, b1, _ := ForkStats()
	if b1 != b0+1 {
		t.Fatalf("mutated params did not force a new prefix capture (builds %d->%d)", b0, b1)
	}

	SetWorldFork(false)
	defer SetWorldFork(true)
	DrainWorldPool()
	if want := measuredPoint(par, 512); got != want {
		t.Fatalf("mutated-params fork measured %v, replay path %v", got, want)
	}
}

func TestFullSnapshotCacheReplaysNewShapes(t *testing.T) {
	// Nothing is evicted: past maxCachedSnapshots distinct keys, a point
	// builds no prefix and forks nothing — it replays, in one world.
	SetWorldFork(true)
	DrainSnapshots()
	DrainWorldPool()
	defer DrainSnapshots()
	par := model.Default()
	body := func(p *sim.Proc, pe *core.PE) { pe.BarrierAll(p) }
	for k := range maxCachedSnapshots + 4 {
		f0, b0, _ := ForkStats()
		w0 := WorldsSimulated()
		runRingWorldPrefixed("cache-bound", par, 3, core.Options{}, fmt.Sprintf("bound:%d", k), 0, nil, body)
		f1, b1, _ := ForkStats()
		forks, builds, worlds := f1-f0, b1-b0, WorldsSimulated()-w0
		want := [3]uint64{1, 1, 2} // a prefix build and a fork, two worlds
		if k >= maxCachedSnapshots {
			want = [3]uint64{0, 0, 1}
		}
		if got := [3]uint64{builds, forks, worlds}; got != want {
			t.Fatalf("shape %d: %d prefix builds, %d forks, %d worlds; want %v", k, builds, forks, worlds, want)
		}
	}
}

func TestForkProbePointBothPaths(t *testing.T) {
	par := model.Default()
	SetWorldFork(true)
	DrainSnapshots()
	DrainWorldPool()
	f0, _, _ := ForkStats()
	for pt := 0; pt < 3; pt++ {
		ForkProbePoint(par, 3, 2, 8192, pt)
	}
	if f1, _, _ := ForkStats(); f1 != f0+3 {
		t.Fatalf("probe points forked %d times, want 3", f1-f0)
	}
	SetWorldFork(false)
	defer SetWorldFork(true)
	for pt := 0; pt < 3; pt++ {
		ForkProbePoint(par, 3, 2, 8192, pt)
	}
}

// BenchmarkWorldFork measures fork-path sweep-point throughput on the
// prefix-heavy probe: each iteration checks out a pooled world, forks it
// onto the cached fill snapshot, and runs one divergent body.
// TestBenchCeilings holds its allocs/op; the repository benchmark's
// bench.forks_per_s watches the rate.
func BenchmarkWorldFork(b *testing.B) {
	par := model.Default()
	SetWorldFork(true)
	DrainSnapshots()
	DrainWorldPool()
	defer DrainWorldPool()
	// Warm the snapshot cache and the world pool.
	ForkProbePoint(par, 3, 4, 32768, 0)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ForkProbePoint(par, 3, 4, 32768, 1)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "forks/s")
}

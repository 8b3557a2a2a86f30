package bench

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sim"
)

// runTinyWorld drives one labelled 3-host world through runRingWorld
// and returns the completion time observed by PE 0.
func runTinyWorld(par *model.Params, opts core.Options) sim.Time {
	var end sim.Time
	runRingWorld("worldpool-test", par, 3, opts, func(p *sim.Proc, pe *core.PE) {
		sym := pe.MustMalloc(p, 4096)
		pe.BarrierAll(p)
		if pe.ID() == 0 {
			pe.PutBytes(p, 1, sym, make([]byte, 4096))
		}
		pe.BarrierAll(p)
		if pe.ID() == 0 {
			end = p.Now()
		}
	})
	return end
}

func TestWorldPoolRecyclesAndMatchesFresh(t *testing.T) {
	// Pin the replay path: this test asserts the pool's own hit/miss
	// accounting, which the fork path overlays with prefix-build traffic
	// (covered by the fork cache tests).
	SetWorldFork(false)
	defer SetWorldFork(true)
	DrainWorldPool()
	par := model.Default()

	h0, m0 := WorldPoolStats()
	first := runTinyWorld(par, core.Options{})
	h1, m1 := WorldPoolStats()
	if h1 != h0 || m1 != m0+1 {
		t.Fatalf("first run: hits %d->%d misses %d->%d, want one miss", h0, h1, m0, m1)
	}
	second := runTinyWorld(par, core.Options{})
	h2, m2 := WorldPoolStats()
	if h2 != h1+1 || m2 != m1 {
		t.Fatalf("second run: hits %d->%d misses %d->%d, want one hit", h1, h2, m1, m2)
	}
	if first != second {
		t.Fatalf("recycled world diverged: fresh %v, pooled %v", first, second)
	}
}

func TestWorldPoolDetectsMutatedParams(t *testing.T) {
	SetWorldFork(false)
	defer SetWorldFork(true)
	DrainWorldPool()
	par := model.Default().Clone()
	runTinyWorld(par, core.Options{})

	// A sweep reusing one clone across points mutates it between runs;
	// the pooled world's own params fingerprint no longer matches and
	// checkout must treat it as a miss, not hand back a stale world.
	par.PutChunk *= 2
	h0, m0 := WorldPoolStats()
	runTinyWorld(par, core.Options{})
	h1, m1 := WorldPoolStats()
	if h1 != h0 {
		t.Fatalf("stale-params world was reused (hits %d->%d)", h0, h1)
	}
	if m1 != m0+1 {
		t.Fatalf("stale-params checkout not counted as a miss (%d->%d)", m0, m1)
	}

	// The other way round: a world pooled under the default value whose
	// own params object is then mutated is found by a checkout for the
	// default value, discovered stale, and shut down. The caller builds a
	// fresh world, so that checkout is a miss too — never a hit.
	DrainWorldPool()
	mutable, pristine := model.Default().Clone(), model.Default().Clone()
	runTinyWorld(mutable, core.Options{}) // pooled under the default value
	mutable.PutChunk *= 2                 // ...which its world no longer has
	h2, m2 := WorldPoolStats()
	runTinyWorld(pristine, core.Options{})
	h3, m3 := WorldPoolStats()
	if h3 != h2 || m3 != m2+1 {
		t.Fatalf("discarded stale world tallied as hits %d->%d misses %d->%d, want +0/+1", h2, h3, m2, m3)
	}
	// The fresh world that replaced it is pooled and serves the next run.
	runTinyWorld(pristine, core.Options{})
	if h4, m4 := WorldPoolStats(); h4 != h3+1 || m4 != m3 {
		t.Fatalf("run after the discard: hits %d->%d misses %d->%d, want +1/+0", h3, h4, m3, m4)
	}
}

// TestWorldPoolDetectsMutatedChipsetSpread: the pool key carries the one
// slice field of model.Params by content, so a pooled world whose
// spread factors are edited in place — same slice, new numbers — is a
// miss, never handed back as a world of the old shape.
func TestWorldPoolDetectsMutatedChipsetSpread(t *testing.T) {
	SetWorldFork(false)
	defer SetWorldFork(true)
	DrainWorldPool()
	defer DrainWorldPool()
	mutable, pristine := model.Default().Clone(), model.Default().Clone()
	runTinyWorld(mutable, core.Options{}) // pooled under the default spread
	mutable.ChipsetSpread[1] = 0.5
	h0, m0 := WorldPoolStats()
	runTinyWorld(pristine, core.Options{})
	if h1, m1 := WorldPoolStats(); h1 != h0 || m1 != m0+1 {
		t.Fatalf("a world whose spread was mutated in place: hits %d->%d misses %d->%d, want +0/+1", h0, h1, m0, m1)
	}
	runTinyWorld(pristine, core.Options{})
	if h2, _ := WorldPoolStats(); h2 != h0+1 {
		t.Fatal("the unmutated shape missed the pool")
	}
}

// TestWorldPoolEvictsOldestAndShutsItDown: checking in more shapes than
// the pool holds keeps the most recent ones — the latest shape hits, the
// first is gone — and every evicted world was shut down: after the pool
// is drained, the goroutine count is back where it started.
func TestWorldPoolEvictsOldestAndShutsItDown(t *testing.T) {
	SetWorldFork(false)
	defer SetWorldFork(true)
	DrainWorldPool()
	before := runtime.NumGoroutine()
	shapes := make([]*model.Params, maxPooledWorlds+4)
	for i := range shapes {
		shapes[i] = model.Default().Clone()
		shapes[i].DMASetup += sim.Duration(i) // a distinct shape per world
		runTinyWorld(shapes[i], core.Options{})
	}
	worldPool.mu.Lock()
	pooled := len(worldPool.worlds)
	worldPool.mu.Unlock()
	if pooled != maxPooledWorlds {
		t.Fatalf("%d worlds pooled after %d check-ins, want the cap %d", pooled, len(shapes), maxPooledWorlds)
	}
	h0, m0 := WorldPoolStats()
	runTinyWorld(shapes[len(shapes)-1], core.Options{})
	if h1, m1 := WorldPoolStats(); h1 != h0+1 || m1 != m0 {
		t.Fatalf("the latest shape: hits %d->%d misses %d->%d, want a hit", h0, h1, m0, m1)
	}
	runTinyWorld(shapes[0], core.Options{})
	if h2, m2 := WorldPoolStats(); h2 != h0+1 || m2 != m0+1 {
		t.Fatalf("the oldest shape: hits %d->%d misses %d->%d, want a miss (evicted)", h0, h2, m0, m2)
	}
	DrainWorldPool()
	// A leaked world parks a dozen goroutines; allow a moment for
	// unrelated runtime goroutines to come and go.
	after := runtime.NumGoroutine()
	for i := 0; i < 200 && after > before; i++ {
		time.Sleep(5 * time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Fatalf("goroutines %d -> %d across eviction and drain: an evicted world was not shut down", before, after)
	}
}

func TestRunPointsOrderedCostOrderIsInvisible(t *testing.T) {
	points := []int{10, 20, 30, 40, 50}
	fn := func(x int) int { return x * x }
	want := RunPointsOrdered(1, points, nil, fn)

	for _, costs := range [][]float64{
		{1, 2, 3, 4, 5}, // ascending: claims run reverse
		{5, 4, 3, 2, 1}, // descending: claims run forward
		{3, 3, 3, 3, 3}, // ties: stable order by index
		{2, 9},          // wrong length: ignored
		nil,             // absent
	} {
		for _, par := range []int{1, 4} {
			got := RunPointsOrdered(par, points, costs, fn)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("costs=%v par=%d: result[%d] = %d, want %d", costs, par, i, got[i], want[i])
				}
			}
		}
	}
}

// TestPooledWindowsHoldOnlyTheSlotsUsed holds the window half of a
// drained sweep's live heap: after E3's kernels and A6's pipeline-depth
// sweep, the worlds the pool keeps warm hold at most 4 MiB of
// inbound-window storage. One worker runs the points, as in a `-j 1`
// sweep, so the pool holds one world per shape. A pipelined receiver
// materialising its whole slot ring pinned 14 MiB here; one holding
// only the slots it used pins about 3 MiB.
func TestPooledWindowsHoldOnlyTheSlotsUsed(t *testing.T) {
	defer SetParallelism(int(parallelism.Load()))
	SetParallelism(1)
	DrainWorldPool()
	DrainSnapshots()
	defer DrainWorldPool()
	par := model.Default()
	RunAppKernels(par)
	RunAblationPipeline(par)
	worldPool.mu.Lock()
	total := 0
	for _, pw := range worldPool.worlds {
		total += pw.w.Cluster.WindowResident()
	}
	worlds := len(worldPool.worlds)
	worldPool.mu.Unlock()
	t.Logf("%d pooled worlds hold %.2f MiB of window storage", worlds, float64(total)/(1<<20))
	if total > 4<<20 {
		t.Errorf("pooled worlds hold %d window bytes, ceiling %d", total, 4<<20)
	}
}

package bench

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/model"
	"repro/internal/sim"
)

// The parallel experiment engine. Every figure, ablation, and extension
// is produced by running many independent deterministic worlds; each
// world stays single-threaded and bit-identical, and parallelism is
// strictly across worlds. Results are slotted by point index, never by
// completion order, so a sweep's output is byte-for-byte identical at
// any worker count.

// parallelism is the worker count used by the Run* sweeps; zero means
// "use runtime.GOMAXPROCS(0)".
var parallelism atomic.Int64

// SetParallelism sets the worker count for subsequent figure sweeps.
// n < 1 resets to the default (one worker per available CPU).
func SetParallelism(n int) {
	if n < 1 {
		n = 0
	}
	parallelism.Store(int64(n))
}

// Parallelism reports the worker count figure sweeps will use.
func Parallelism() int {
	if n := int(parallelism.Load()); n > 0 {
		return n
	}
	// The one sanctioned core-count read: host parallelism is bench
	// policy (how many worlds run at once), never simulation state —
	// results stay byte-identical at any worker count.
	//ntblint:cpupolicy
	return runtime.GOMAXPROCS(0)
}

// SetShards and SetWorldPool are what is left of two deleted mechanisms:
// conservative-PDES sharding (measured five times, never a win;
// EXPERIMENTS.md) and the world pool's off switch. A world is one
// simulator and every world is pooled, so each accepts only the value
// that says so. They exist because benchmark/surface.go binds them and
// benchmark/main.go calls them; the benchmark-only PR that rebinds
// surface.go (ROADMAP item 2c) removes both.
func SetShards(n int) {
	if n != 1 {
		panic(fmt.Sprintf("bench: SetShards(%d): sharding is deleted; a world is one simulator", n))
	}
}

func SetWorldPool(on bool) {
	if !on {
		panic("bench: SetWorldPool(false): the pool-off path is deleted; every world is pooled")
	}
}

// benchFabric selects which fabric backend subsequent world builds use;
// the zero value is fabric.KindNTBRing, the reference topology every
// golden CSV was produced over.
var benchFabric atomic.Int64

// SetFabric selects the fabric backend for subsequent figure sweeps.
// Pooled worlds and cached prefix snapshots are keyed by fabric kind, so
// flipping the backend mid-process can never hand a sweep a world of the
// wrong topology.
func SetFabric(k fabric.Kind) { benchFabric.Store(int64(k)) }

// Fabric reports the fabric backend sweeps will build worlds over.
func Fabric() fabric.Kind { return fabric.Kind(benchFabric.Load()) }

// worldCount tallies simulated worlds across all sweeps, for the
// harness's worlds-per-second summary.
var worldCount atomic.Uint64

// WorldsSimulated reports how many simulation worlds have been built and
// run by this package since process start.
func WorldsSimulated() uint64 { return worldCount.Load() }

// worldEvents tallies virtual events dispatched across all bench worlds —
// the kernel-level cost of everything simulated so far.
var worldEvents atomic.Uint64

// VirtualEvents reports the total virtual events executed by worlds run
// through this package since process start.
func VirtualEvents() uint64 { return worldEvents.Load() }

// RunPoints fans fn over points across the configured workers
// (Parallelism) and returns the results in point order — the form every
// figure sweep uses. fn must be safe to call concurrently for distinct
// points (the Run* sweeps satisfy this: every point builds its own
// simulator). A panic in fn is re-raised on the calling goroutine after
// all workers have stopped.
func RunPoints[T, R any](points []T, fn func(T) R) []R {
	return RunPointsOrdered(Parallelism(), points, nil, fn)
}

// RunPointsOrdered is RunPoints over par workers with cost-aware
// claiming: costs[i] estimates point i's simulation cost (any monotone
// proxy — bytes moved, virtual events from a previous run), and workers
// claim points largest-estimate-first so no worker is left grinding
// through the heaviest point after its siblings have drained the cheap
// ones. Results are still slotted by original point index, so the
// returned slice — and any figure built from it — is byte-identical to
// RunPoints at any worker count and any cost vector. A nil or mis-sized
// costs falls back to claim-in-index-order.
func RunPointsOrdered[T, R any](par int, points []T, costs []float64, fn func(T) R) []R {
	results := make([]R, len(points))
	if len(points) == 0 {
		return results
	}
	if par < 1 {
		par = 1
	}
	if par > len(points) {
		par = len(points)
	}
	order := make([]int, len(points))
	for i := range order {
		order[i] = i
	}
	if len(costs) == len(points) {
		sort.SliceStable(order, func(a, b int) bool {
			return costs[order[a]] > costs[order[b]]
		})
	}
	if par == 1 {
		// Serial fast path: no goroutines, same claim order.
		for _, i := range order {
			results[i] = fn(points[i])
		}
		return results
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Value
	)
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= len(order) {
					return
				}
				i := order[c]
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicked.CompareAndSwap(nil, fmt.Sprintf("bench: point %d panicked: %v", i, r))
						}
					}()
					results[i] = fn(points[i])
				}()
				if panicked.Load() != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	if r := panicked.Load(); r != nil {
		panic(r)
	}
	return results
}

// runPointsCost is RunPoints with a per-point cost estimate, for sweeps
// whose points have predictably uneven weight (latency sweeps over block
// sizes, mostly). cost receives the point's index and value.
func runPointsCost[T, R any](points []T, cost func(i int, pt T) float64, fn func(T) R) []R {
	costs := make([]float64, len(points))
	for i, pt := range points {
		costs[i] = cost(i, pt)
	}
	return RunPointsOrdered(Parallelism(), points, costs, fn)
}

// runRingWorld drives body on every PE of an n-host ring world to
// completion. It checks out a warm world for the (params, n, options)
// shape and restores it — or builds one on a miss — and after a clean
// run returns it; restored worlds are indistinguishable from fresh ones
// (see core.World.Reset), so results do not depend on pool state.
//
// label names the figure/point for panic attribution. runRingWorld
// panics on simulation error (measurement harnesses have no recovery
// story) and counts the world for the throughput summary.
func runRingWorld(label string, par *model.Params, n int, opts core.Options, body func(p *sim.Proc, pe *core.PE)) {
	runRingWorldPrefixed(label, par, n, opts, initPrefixKey, 0, nil, body)
}

// runRingWorldPrefixed drives prefix-then-body on an n-host ring world.
// With forking enabled (the default) the prefix — implicitly including
// shmem_init — is simulated once per (shape, prefixKey, seed) and every
// further point forks the captured snapshot, running only body; with it
// disabled the whole prefix replays from t=0 per point, which is the
// reference the fork-equivalence tests compare against. A nil prefix
// means the bare shmem_init warm-up. prefixKey with seed must uniquely
// name what prefix simulates; two different prefix closures must never
// share a key for the same shape.
func runRingWorldPrefixed(label string, par *model.Params, n int, opts core.Options, prefixKey string, seed int64, prefix, body func(p *sim.Proc, pe *core.PE)) {
	if forkOn.Load() {
		runForked(label, par, n, opts, prefixKey, seed, prefix, body)
		return
	}
	combined := body
	if prefix != nil {
		combined = func(p *sim.Proc, pe *core.PE) {
			prefix(p, pe)
			body(p, pe)
		}
	}
	runRingWorldReplay(label, par, n, opts, combined)
}

// buildRingWorld constructs a fresh n-host world over the selected
// fabric backend (the ring by default — the name survives from when the
// ring was the only topology), panicking with the point label on
// topology errors.
func buildRingWorld(label string, par *model.Params, n int, opts core.Options) *core.World {
	c, err := fabric.New(fabric.Config{Sim: sim.New(), Par: par, Hosts: n, Kind: Fabric()})
	if err != nil {
		panic(fmt.Sprintf("bench: %s: %v", label, err))
	}
	return core.NewWorld(c, opts)
}

// runRingWorldReplay is the no-fork path: simulate everything from t=0.
func runRingWorldReplay(label string, par *model.Params, n int, opts core.Options, body func(p *sim.Proc, pe *core.PE)) {
	worldCount.Add(1)
	w, recycled := acquireWorld(label, par, n, opts)
	if recycled {
		w.Reset()
	}
	err := w.RunKeep(body)
	releaseWorld(w, label, n, opts, err)
}

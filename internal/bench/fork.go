package bench

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/sim"
)

// The fork-prefix cache. Every sweep point a figure runs starts with the
// same warm-up — at minimum shmem_init's boot exchange and init barrier,
// for prefix-heavy workloads a whole steady-state fill — and PR 3's
// world pool still replayed that prefix per point. Here the pool grows a
// snapshot cache: the first point of a (shape, prefix, seed) key runs
// the prefix once and captures a core.WorldSnapshot; every later point
// checks out a pooled world — in whatever state its last run left it —
// Forks it onto the snapshot (copy-on-write heap pages, copied device
// registers), and runs only its divergent body. Fork equivalence
// (internal/core/fork_test.go) guarantees the simulated futures — and
// therefore the results/ CSVs — are byte-identical to the replay path.

// forkOn gates the fork path; see SetWorldFork. Defaults to enabled.
var forkOn atomic.Bool

func init() { forkOn.Store(true) }

// SetWorldFork enables or disables prefix forking for subsequent sweep
// points. Replay (false) is the reference the golden, cross-fabric,
// parallel and fork suites hold fork equivalence against; no command
// exposes it. Disabling drops the snapshot cache.
func SetWorldFork(on bool) {
	forkOn.Store(on)
	if !on {
		DrainSnapshots()
	}
}

// Fork statistics, cumulative since process start.
var (
	forkForks        atomic.Uint64 // sweep points served by forking a snapshot
	forkPrefixBuilds atomic.Uint64 // prefix runs captured into the cache
	forkEventsSaved  atomic.Uint64 // virtual events forks skipped replaying
)

// ForkStats reports how many sweep points forked a cached snapshot, how
// many prefix runs were captured, and how many virtual events the forks
// avoided re-simulating. CoW page-copy counts live in mem.CowCopies.
func ForkStats() (forks, prefixBuilds, eventsSaved uint64) {
	return forkForks.Load(), forkPrefixBuilds.Load(), forkEventsSaved.Load()
}

// CowPagesCopied reports the process-wide copy-on-write page-copy count
// (re-exported from internal/mem so harnesses need only this package).
func CowPagesCopied() uint64 { return mem.CowCopies() }

// maxCachedSnapshots bounds the snapshot cache. Snapshots are plain data
// (no goroutines), so eviction is just a dropped reference; the bound
// only matters for sweeps touching many distinct shapes, which fall back
// to replaying.
const maxCachedSnapshots = 16

// initPrefixKey names the implicit warm-up every world executes anyway:
// shmem_init (boot exchange, match-table setup, init barrier). It is
// seedless — boot takes no workload randomness.
const initPrefixKey = "init"

var snapCache struct {
	mu sync.Mutex
	m  map[snapKey]*core.WorldSnapshot
	// buildMu serializes prefix captures so workers racing to a cold key
	// replay the prefix once, not once per worker.
	buildMu sync.Mutex
}

// snapKey extends the world-pool key with the workload-prefix key and
// seed. Params enter by value, so a sweep that mutates its params object
// between points can never be served a stale-prefix snapshot — the
// mutated value is a different key (the same guarantee acquireWorld
// enforces for pooled worlds).
type snapKey struct {
	shape  poolKey
	prefix string
	seed   int64
}

// DrainSnapshots discards every cached prefix snapshot.
func DrainSnapshots() {
	snapCache.mu.Lock()
	snapCache.m = nil
	snapCache.mu.Unlock()
}

// cachedSnapshot returns the snapshot for key, or nil.
func cachedSnapshot(key snapKey) *core.WorldSnapshot {
	snapCache.mu.Lock()
	defer snapCache.mu.Unlock()
	return snapCache.m[key]
}

// storeSnapshot inserts snap under key if the cache has room.
func storeSnapshot(key snapKey, snap *core.WorldSnapshot) {
	snapCache.mu.Lock()
	if snapCache.m == nil {
		snapCache.m = make(map[snapKey]*core.WorldSnapshot)
	}
	if len(snapCache.m) < maxCachedSnapshots {
		snapCache.m[key] = snap
	}
	snapCache.mu.Unlock()
}

// prefixSnapshot returns the cached snapshot for the given shape and
// prefix, capturing it on first use by running the prefix on a pooled
// (or fresh) world. A nil prefix is the bare shmem_init warm-up.
func prefixSnapshot(label string, par *model.Params, n int, opts core.Options, prefixKey string, seed int64, prefix func(p *sim.Proc, pe *core.PE)) *core.WorldSnapshot {
	key := snapKey{shape: worldKey(par, n, opts, Fabric()), prefix: prefixKey, seed: seed}
	if snap := cachedSnapshot(key); snap != nil {
		return snap
	}
	snapCache.buildMu.Lock()
	defer snapCache.buildMu.Unlock()
	if snap := cachedSnapshot(key); snap != nil {
		return snap
	}

	worldCount.Add(1)
	forkPrefixBuilds.Add(1)
	w, recycled := acquireWorld(label, par, n, opts)
	if recycled {
		w.Reset()
	}
	run := prefix
	if run == nil {
		run = func(p *sim.Proc, pe *core.PE) {}
	}
	err := w.RunKeep(run)
	var snap *core.WorldSnapshot
	if err == nil {
		snap = w.Snapshot()
	}
	releaseWorld(w, fmt.Sprintf("%s: prefix %q", label, prefixKey), n, opts, err)
	storeSnapshot(key, snap)
	return snap
}

// forkProbeSeed seeds the probe workload's fill data; frozen like every
// other workload seed so A/B runs compare identical simulations.
const forkProbeSeed int64 = 7

// ForkProbePoint runs one point of the prefix-heavy probe workload that
// BenchmarkWorldFork and the repository benchmark's bench.forks_per_s
// measure: a steady-state fill prefix — rounds of fill-byte
// ring puts with barriers, shared by every point of the sweep — then a
// small divergent body whose put size varies per point. With forking
// enabled the fill simulates once per sweep; without it, every point
// replays the fill from t=0. This is the workload shape the ROADMAP's
// Monte-Carlo campaigns have: a long shared warm-up, a short divergent
// future.
func ForkProbePoint(par *model.Params, n, rounds, fill, point int) {
	label := fmt.Sprintf("fork-probe:%d", point)
	prefixKey := fmt.Sprintf("fill:r=%d:b=%d", rounds, fill)
	prefix := func(p *sim.Proc, pe *core.PE) {
		sym := pe.MustMalloc(p, fill)
		rng := SeededRNG(forkProbeSeed + int64(pe.ID())*7919)
		buf := make([]byte, fill)
		for i := range buf {
			buf[i] = byte(rng.Intn(256))
		}
		pe.BarrierAll(p)
		for r := 0; r < rounds; r++ {
			pe.PutBytes(p, (pe.ID()+1)%pe.NumPEs(), sym, buf)
			pe.BarrierAll(p)
		}
	}
	body := func(p *sim.Proc, pe *core.PE) {
		sym := pe.MustMalloc(p, 512)
		pe.BarrierAll(p)
		if pe.ID() == 0 {
			pe.PutBytes(p, 1%pe.NumPEs(), sym, make([]byte, 64+32*(point%8)))
		}
		pe.BarrierAll(p)
	}
	runRingWorldPrefixed(label, par, n, core.Options{}, prefixKey, forkProbeSeed, prefix, body)
}

// runForked serves one sweep point from the prefix cache: fork a pooled
// world onto the snapshot and run only the divergent body.
func runForked(label string, par *model.Params, n int, opts core.Options, prefixKey string, seed int64, prefix, body func(p *sim.Proc, pe *core.PE)) {
	snap := prefixSnapshot(label, par, n, opts, prefixKey, seed, prefix)
	worldCount.Add(1)
	w, _ := acquireWorld(label, par, n, opts)
	w.Fork(snap)
	err := w.RunKeepForked(body)
	forkForks.Add(1)
	forkEventsSaved.Add(snap.Events())
	releaseWorld(w, label, n, opts, err)
}

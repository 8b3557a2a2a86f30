package bench

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mem"
	"repro/internal/model"
)

// The world pool. PR 2's profiling showed world construction dominated by
// buffer setup, and most sweeps run dozens of points over an identical
// world shape (same params, host count, options). The pool keeps cleanly
// finished worlds warm, keyed by that shape, so runRingWorld pays
// construction once per shape per worker instead of once per point.
//
// A world is checked in asserted quiescent and with its payload storage
// given back: World.ReturnStorage runs the drop half of its next restore
// early, so its written heap pages, window parts and staging buffers go
// to the mem lender, and an idle world parks none of them. Nothing else
// is rewound. Whoever checks the world out restores it exactly once: to
// power-on (World.Reset) for a from-t0 run, or straight onto a prefix
// snapshot (World.Fork); that restore finds nothing to drop, and
// the run borrows its storage back from the lender.
//
// A pooled world's started service threads, forwarders and DMA engines
// stay parked on live goroutines, so a world must never be silently
// dropped: every world that leaves the pool is either recycled or
// released with Shutdown. That is why this is an explicit bounded
// structure rather than a sync.Pool — a GC-evicted entry would leak its
// goroutines permanently.

// maxPooledWorlds bounds how many warm worlds the pool retains across all
// shapes. The pool is one list in check-in order: a check-in that takes
// it over budget shuts down the least recently checked-in worlds, so a
// sweep's current figure group keeps its worlds warm instead of the
// first 32 worlds the sweep happened to build.
const maxPooledWorlds = 32

// maxPooledPEs bounds the pool by total parked PEs rather than world
// count alone: a single 1024-PE world holds up to ~4k reactor goroutines
// and megabytes of per-PE state, so weighting the budget by PEs keeps the
// scaling sweep from pinning 32 such worlds in memory.
// Worlds over the per-world budget are still poolable — one at a time.
const maxPooledPEs = 4096

// pooledWorld is one warm world and the shape it was checked in under.
type pooledWorld struct {
	key poolKey
	w   *core.World
}

var worldPool struct {
	mu     sync.Mutex
	worlds []pooledWorld // oldest check-in first
	pes    int           // pooled PEs (sum of world sizes), budgeted by maxPooledPEs
	hits   uint64
	misses uint64
}

// poolKey is everything that shapes a world: the full params value
// (params are mutated per point by some sweeps, so pointer identity is
// useless), host count, runtime options, and the fabric backend — so a
// cross-fabric sweep never recycles a switch-topology world into a ring
// measurement.
type poolKey struct {
	par  paramsKey
	n    int
	opts core.Options
	fab  fabric.Kind
}

// paramsKey is a model.Params value in comparable form: each scalar
// field's bits in declaration order, and ChipsetSpread — the one slice
// field — as a string of its factors' bits.
type paramsKey struct {
	fields [maxParamFields]uint64
	spread string
}

// maxParamFields is the room paramsKey has for model.Params's fields;
// keyOfParams panics if Params outgrows it.
const maxParamFields = 40

func keyOfParams(par *model.Params) paramsKey {
	var k paramsKey
	v := reflect.ValueOf(par).Elem()
	if v.NumField() > maxParamFields {
		panic(fmt.Sprintf("bench: model.Params has %d fields, the pool key room for %d", v.NumField(), maxParamFields))
	}
	for i := range v.NumField() {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			k.fields[i] = uint64(f.Int())
		case reflect.Float64:
			k.fields[i] = math.Float64bits(f.Float())
		case reflect.Slice:
			var buf [64]byte
			b := buf[:0]
			for j := range f.Len() {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f.Index(j).Float()))
			}
			k.spread = string(b)
		default:
			panic(fmt.Sprintf("bench: model.Params field %s has kind %s, which the pool key does not carry",
				v.Type().Field(i).Name, f.Kind()))
		}
	}
	return k
}

func worldKey(par *model.Params, n int, opts core.Options, fab fabric.Kind) poolKey {
	return poolKey{par: keyOfParams(par), n: n, opts: opts, fab: fab}
}

// keyOf is the key a built world has now; it differs from the key the
// world was pooled under if its params object was mutated since.
func keyOf(w *core.World, n int, opts core.Options) poolKey {
	return worldKey(w.Cluster.Par, n, opts, w.Cluster.Kind())
}

// WorldPoolStats returns how many checkouts were served warm (hits) and
// how many built fresh worlds (misses) since process start.
func WorldPoolStats() (hits, misses uint64) {
	worldPool.mu.Lock()
	defer worldPool.mu.Unlock()
	return worldPool.hits, worldPool.misses
}

// DrainWorldPool shuts down and discards every pooled world, releasing
// their daemon goroutines, and empties the mem lender the pooled worlds
// gave their storage to, so the next sweep pays what a fresh process
// pays. Benchmarks and tests that account for memory or goroutines call
// this between phases.
func DrainWorldPool() {
	worldPool.mu.Lock()
	all := worldPool.worlds
	worldPool.worlds = nil
	worldPool.pes = 0
	worldPool.mu.Unlock()
	for _, pw := range all {
		pw.w.Cluster.ShutdownSim()
	}
	mem.DrainLender()
}

// acquireWorld checks a warm world of the requested shape out of the
// pool — the most recently checked-in match, in whatever state its last
// run left it: the caller restores it (Reset or Fork) — or, on a miss,
// builds a fresh one. recycled tells the two apart. A pooled world was
// keyed by its params value at check-in time; if the params object it
// references was mutated since (a sweep reusing one clone across
// points), the stale world is shut down and the checkout is a miss like
// any other.
func acquireWorld(label string, par *model.Params, n int, opts core.Options) (w *core.World, recycled bool) {
	key := worldKey(par, n, opts, Fabric())
	worldPool.mu.Lock()
	for i := len(worldPool.worlds) - 1; i >= 0; i-- {
		if worldPool.worlds[i].key == key {
			w = worldPool.worlds[i].w
			worldPool.worlds = slices.Delete(worldPool.worlds, i, i+1)
			worldPool.pes -= n
			break
		}
	}
	stale := w != nil && keyOf(w, n, opts) != key
	if w != nil && !stale {
		worldPool.hits++
	} else {
		worldPool.misses++
	}
	worldPool.mu.Unlock()
	if stale {
		w.Cluster.ShutdownSim()
		w = nil
	}
	if w == nil {
		return buildRingWorld(label, par, n, opts), false
	}
	return w, true
}

// checkinWorld returns a cleanly finished world to the pool, asserting
// its runtime drained (a world that did not is a bug in the point that
// just ran, and must surface there, not at some later checkout) and
// giving its payload storage back to the mem lender. While
// the pool is over either budget it shuts down its oldest worlds; the
// world just checked in always stays, so a world bigger than the whole
// PE budget is pooled alone and thousand-PE sweeps keep exactly one warm
// world instead of rebuilding per point.
func checkinWorld(w *core.World, n int, opts core.Options) {
	w.ReturnStorage()
	key := keyOf(w, n, opts)
	worldPool.mu.Lock()
	worldPool.worlds = append(worldPool.worlds, pooledWorld{key: key, w: w})
	worldPool.pes += n
	var evicted []*core.World
	for len(worldPool.worlds) > 1 &&
		(len(worldPool.worlds) > maxPooledWorlds || worldPool.pes > maxPooledPEs) {
		oldest := worldPool.worlds[0]
		evicted = append(evicted, oldest.w)
		worldPool.pes -= oldest.key.n
		worldPool.worlds = slices.Delete(worldPool.worlds, 0, 1)
	}
	worldPool.mu.Unlock()
	for _, old := range evicted {
		old.Cluster.ShutdownSim()
	}
}

// releaseWorld ends one acquired world's run: account its events, and
// either surface the failure with its point label (a failed world cannot
// be recycled; its goroutines are released first) or hand the world back.
func releaseWorld(w *core.World, label string, n int, opts core.Options, err error) {
	worldEvents.Add(w.Cluster.EventsExecuted())
	if err != nil {
		w.Cluster.ShutdownSim()
		if label != "" {
			panic(fmt.Sprintf("bench: %s: %v", label, err))
		}
		panic(err)
	}
	checkinWorld(w, n, opts)
}

package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// The four workloads. Each is a closed loop with one client: the next
// op is issued only after the previous one completed and was checked.
// All host-time numbers come from the untraced blocks of a run; a traced
// run alternates traced and untraced blocks so the two are compared
// under the same machine drift.

// workloadNames is BENCHMARK.json's workload list, in order.
var workloadNames = []string{"figsweep", "ring256", "put1m", "get64k"}

// A run sets its world up several times and reports the median as
// setup_s: setupReps counts the set-ups thrown away before the one the
// measured loop keeps. Cheaper set-ups are repeated more often.
const (
	figsweepSetupReps = 4  // the paper's four figure groups, ~0.4 s each
	ringSetupReps     = 4  // 256-host constructions: 2.4 GB of fresh pages, 0.4 s to seconds each
	standingSetupReps = 99 // 3-host constructions, milliseconds each
)

// runConfig is one invocation's input.
type runConfig struct {
	seed    int64
	seconds float64
	traced  bool // alternate traced and untraced blocks, record spans
}

// measurement is what one workload run observed.
type measurement struct {
	attempted, failed int

	setupS   []float64 // host s per set-up
	untraced []block   // equal-work blocks measured with tracing off
	traced   []block   // the alternate blocks of a traced run
	opMs     []float64 // host ms per op, untraced blocks only
	blockAt  []int     // index in opMs of each untraced block's first sample
	opsTotal int       // ops in all measured blocks
	opsPlain int       // … of which in untraced blocks

	virtUsPerOp float64   // simulated µs per op, from the first measured block
	eventsPerOp float64   // simulated events per op
	liveHeapMiB float64   // post-GC heap with the world still referenced
	hostAt      hostSnap  // host accounting at the start of the current untraced block
	host        hostDelta // … and its change summed over the untraced blocks

	// counts are exact per-op (per-sweep on figsweep) counters, by
	// per-layer metric name.
	counts map[string]float64
	// stepMs holds figsweep's host ms per step of a sweep — the cache
	// drain and each figure group — one sample per sweep; index 0 for
	// untraced sweeps, 1 for traced ones. Nil on the other workloads.
	stepMs *[2]map[string][]float64

	tr *tracer
}

// Host noise on a shared machine only ever slows a block down: a
// neighbour on the sibling hyperthread, a page-fault storm, a GC cycle.
// Such phases last seconds, so how much of a 20 s run they cover varies
// run to run, and the median over blocks varies with it — by 4–8 % on
// the reference VM. The tenth of the blocks least disturbed repeats two
// to three times better (1–3 %), so throughput and latency are both read
// there: the 90th percentile of the blocks' rates, the 10th percentile
// of the blocks' median latencies. Every block does identical simulated
// work, so this picks among repetitions of one measurement, not among
// different ones.
const (
	fastRatePct    = 90
	fastLatencyPct = 10
)

// opsPerSec is the run's throughput from its traced or untraced part:
// the fast decile of the blocks' ops per host second. A figsweep block
// — one whole sweep — is too long for that, a run holds a dozen; there
// the fast decile is taken per step (the drain and each of the 15
// figure groups) across the run's sweeps, and the worlds of one sweep
// are divided by the steps' sum: an undisturbed sweep, assembled from
// undisturbed steps.
func (m *measurement) opsPerSec(traced bool) float64 {
	if m.stepMs == nil {
		bs := m.untraced
		if traced {
			bs = m.traced
		}
		rates := make([]float64, len(bs))
		for i, b := range bs {
			rates[i] = float64(b.ops) / (float64(b.hostN) / 1e9)
		}
		return percentile(rates, fastRatePct)
	}
	steps := m.stepMs[0]
	if traced {
		steps = m.stepMs[1]
	}
	var sweepMs float64
	for _, ms := range steps {
		sweepMs += percentile(ms, fastLatencyPct)
	}
	return m.counts["bench.worlds_per_sweep"] / (sweepMs / 1e3)
}

// opMsP50 is the median host ms per op of an undisturbed block; on
// figsweep, where the op is a world but the unit of work a user waits
// for is the sweep, it is the undisturbed sweep of opsPerSec.
func (m *measurement) opMsP50() float64 {
	if m.stepMs == nil {
		p50 := make([]float64, len(m.blockAt))
		for i, at := range m.blockAt {
			end := len(m.opMs)
			if i+1 < len(m.blockAt) {
				end = m.blockAt[i+1]
			}
			p50[i] = median(m.opMs[at:end])
		}
		return percentile(p50, fastLatencyPct)
	}
	return m.counts["bench.worlds_per_sweep"] / m.opsPerSec(false) * 1e3
}

// hostSnap is the host-side accounting read at the edges of the
// measured loop.
type hostSnap struct {
	totalAlloc, mallocs uint64
	numGC               uint32
	gcCPU, totalCPU     float64 // cumulative CPU seconds
}

// hostDelta is the difference of two hostSnaps, or a sum of such
// differences.
type hostDelta struct {
	allocBytes, mallocs, gcCycles float64
	gcCPU, totalCPU               float64 // CPU seconds
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readHost() hostSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuSamples)
	return hostSnap{
		totalAlloc: ms.TotalAlloc, mallocs: ms.Mallocs, numGC: ms.NumGC,
		gcCPU: cpuSamples[0].Value.Float64(), totalCPU: cpuSamples[1].Value.Float64(),
	}
}

func (a hostSnap) until(b hostSnap) hostDelta {
	return hostDelta{
		allocBytes: float64(b.totalAlloc - a.totalAlloc),
		mallocs:    float64(b.mallocs - a.mallocs),
		gcCycles:   float64(b.numGC - a.numGC),
		gcCPU:      b.gcCPU - a.gcCPU,
		totalCPU:   b.totalCPU - a.totalCPU,
	}
}

// beginHost and endHost bracket an untraced block's host accounting.
// They sit outside the block's timed interval (ReadMemStats stops the
// world) and skip traced blocks, whose spans and hooks allocate on the
// harness's behalf.
func (m *measurement) beginHost(traced bool) {
	if !traced {
		m.hostAt = readHost()
	}
}

func (m *measurement) endHost(traced bool) {
	if traced {
		return
	}
	d := m.hostAt.until(readHost())
	m.host.allocBytes += d.allocBytes
	m.host.mallocs += d.mallocs
	m.host.gcCycles += d.gcCycles
	m.host.gcCPU += d.gcCPU
	m.host.totalCPU += d.totalCPU
}

// liveHeapMiB is the heap still reachable after a full collection;
// callers keep their world referenced across the call.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runWorkload dispatches by name.
func runWorkload(name string, cfg runConfig) (*measurement, error) {
	switch name {
	case "figsweep":
		return runFigsweep(cfg)
	case "ring256":
		return runRing256(cfg)
	case "put1m":
		return runStanding(cfg, standingSpec{size: 1 << 20, blockOps: 256})
	case "get64k":
		return runStanding(cfg, standingSpec{size: 64 << 10, get: true, blockOps: 1024})
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// loop runs equal-work blocks until cfg.seconds of host time have
// passed (and at least minBlocks blocks of each kind have run),
// alternating traced and untraced blocks on a traced run. It returns
// when runBlock reports an error.
func (m *measurement) loop(cfg runConfig, runBlock func(index int, traced bool) (ops int, err error)) error {
	start := time.Now()
	for i := 0; ; i++ {
		traced := cfg.traced && i%2 == 1
		m.tr.on = traced
		m.beginHost(traced)
		t0, firstOp := time.Now(), len(m.opMs)
		ops, err := runBlock(i, traced)
		if err != nil {
			return err
		}
		hostN := int64(time.Since(t0))
		m.endHost(traced)
		if !traced && len(m.opMs) == firstOp {
			m.opMs = append(m.opMs, float64(hostN)/1e6) // the block is the op's only sample
		}
		m.addBlock(block{ops: ops, hostN: hostN}, traced, firstOp)
		if enough(cfg, start, len(m.untraced), len(m.traced)) {
			return nil
		}
	}
}

// addBlock records a finished block; firstOp indexes the block's first
// sample in opMs (untraced blocks only).
func (m *measurement) addBlock(b block, traced bool, firstOp int) {
	m.opsTotal += b.ops
	if traced {
		m.traced = append(m.traced, b)
		return
	}
	m.opsPlain += b.ops
	m.untraced = append(m.untraced, b)
	m.blockAt = append(m.blockAt, firstOp)
}

// minBlocks is the fewest blocks of each kind a run measures, however
// short --seconds is.
const minBlocks = 3

// enough reports whether a run that has measured untraced and traced
// blocks since start may stop: cfg.seconds have passed and it holds
// minBlocks blocks of each kind it measures.
func enough(cfg runConfig, start time.Time, untraced, traced int) bool {
	if time.Since(start).Seconds() < cfg.seconds || untraced < minBlocks {
		return false
	}
	return !cfg.traced || traced >= minBlocks
}

// ---- figsweep ----

// drainStep names the cache drain that opens every sweep, beside the
// figure groups, in the per-step timings.
const drainStep = "drain"

// loadGoldens reads results/*.csv, the committed figure outputs every
// sweep must reproduce byte for byte.
func loadGoldens() (map[string][]byte, error) {
	paths, err := filepath.Glob(filepath.Join("results", "*.csv"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no golden CSVs under results/ (run from the repository root)")
	}
	out := make(map[string][]byte, len(paths))
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		out[filepath.Base(p)] = b
	}
	return out, nil
}

// sweepCounters are the internal/bench tallies sampled around a sweep.
type sweepCounters struct {
	worlds, events, hits, misses, forks, prefixBuilds, eventsSaved, cow uint64
}

func readSweepCounters() sweepCounters {
	var c sweepCounters
	c.worlds, c.events = worldsSimulated(), virtualEvents()
	c.hits, c.misses = worldPoolStats()
	c.forks, c.prefixBuilds, c.eventsSaved = forkStats()
	c.cow = cowPagesCopied()
	return c
}

func (a sweepCounters) until(b sweepCounters) sweepCounters {
	return sweepCounters{
		b.worlds - a.worlds, b.events - a.events, b.hits - a.hits, b.misses - a.misses,
		b.forks - a.forks, b.prefixBuilds - a.prefixBuilds, b.eventsSaved - a.eventsSaved, b.cow - a.cow,
	}
}

// runFigsweep repeats cmd/reproduce's whole figure list in-process.
// Pool and snapshot caches are drained before every sweep because a
// user pays them on every `reproduce`. One block is one sweep; one op
// is one simulated world.
func runFigsweep(cfg runConfig) (*measurement, error) {
	m := &measurement{counts: map[string]float64{}, tr: newTracer()}
	m.stepMs = &[2]map[string][]float64{{}, {}}
	m.tr.on = cfg.traced
	par := defaultParams()
	var goldens map[string][]byte

	// Set-up is what stands between process start and the first
	// measured sweep: reading the goldens and an unchecked warm-up of the
	// paper's own four figure groups (`reproduce -skip-ablations`). The
	// Go heap is still growing towards the ~1.2 GB of pooled worlds when
	// the measured sweeps start; the fast-decile statistics discard those.
	for r := 0; r <= figsweepSetupReps; r++ {
		t0 := time.Now()
		s := m.tr.begin("setup", -1)
		var err error
		if goldens, err = loadGoldens(); err != nil {
			return nil, err
		}
		drainWorldPool()
		drainSnapshots()
		for _, g := range figureGroups[:paperGroups] {
			g.run(par)
		}
		m.tr.end(s)
		m.setupS = append(m.setupS, time.Since(t0).Seconds())
	}

	var first sweepCounters
	var usCells []float64
	err := m.loop(cfg, func(index int, traced bool) (int, error) {
		c0 := readSweepCounters()
		steps := m.stepMs[0]
		if traced {
			steps = m.stepMs[1]
		}
		op := m.tr.begin("sweep", int64(index))
		t0 := time.Now()
		s := m.tr.begin("bench.Drain", int64(index))
		drainWorldPool()
		drainSnapshots()
		m.tr.end(s)
		steps[drainStep] = append(steps[drainStep], float64(time.Since(t0))/1e6)
		seen, bad := 0, 0
		usCells = usCells[:0]
		var fig9 []*figure
		for _, g := range figureGroups {
			t0 := time.Now()
			s := m.tr.begin("bench.Run:"+g.name, int64(index))
			figs := g.run(par)
			m.tr.end(s)
			steps[g.name] = append(steps[g.name], float64(time.Since(t0))/1e6)
			if g.name == "fig9" {
				fig9 = figs
			}
			for _, f := range figs {
				id, unit, values := figureCells(f)
				seen++
				if !bytes.Equal([]byte(figureCSV(f)), goldens[csvFileName(id)]) {
					bad++
				}
				if unit == "us" {
					usCells = append(usCells, values...)
				}
			}
		}
		m.tr.end(op)
		bad += len(checkFig9Shapes(fig9))
		if seen != len(goldens) {
			bad++
		}
		d := c0.until(readSweepCounters())
		if index == 0 {
			first = d
		} else if d != first {
			return 0, fmt.Errorf("figsweep: sweep %d counters %+v differ from sweep 0's %+v", index, d, first)
		}
		m.attempted += int(d.worlds)
		if bad != 0 {
			m.failed += int(d.worlds)
		}
		return int(d.worlds), nil
	})
	if err != nil {
		return nil, err
	}
	m.liveHeapMiB = liveHeapMiB()

	var sum float64
	for _, v := range usCells {
		sum += v
	}
	m.virtUsPerOp = sum / float64(len(usCells))
	m.eventsPerOp = float64(first.events) / float64(first.worlds)
	m.counts["bench.pool_hit_share"] = float64(first.hits) / float64(first.hits+first.misses)
	m.counts["bench.worlds_per_sweep"] = float64(first.worlds)
	m.counts["bench.events_per_sweep"] = float64(first.events)
	m.counts["bench.forks_per_sweep"] = float64(first.forks)
	m.counts["bench.prefix_builds_per_sweep"] = float64(first.prefixBuilds)
	m.counts["bench.prefix_events_saved_per_sweep"] = float64(first.eventsSaved)
	m.counts["bench.cow_pages_per_sweep"] = float64(first.cow)
	m.counts["mem.cow_pages_per_op"] = float64(first.cow) / float64(first.worlds)
	return m, nil
}

// ---- ring256 ----

// The ROADMAP's BenchmarkScaleWorld256 target: one pooled 256-PE
// memcpy-mode ring world, three neighbour puts of 4 KiB per PE between
// two barriers. Its simulated end time and event count are pinned.
const (
	ringPEs, ringPutBytes = 256, 4096
	ringEndNs             = 280267167
	ringEvents            = 24576
	ringBlockOps          = 8
)

func runRing256(cfg runConfig) (*measurement, error) {
	m := &measurement{counts: map[string]float64{}, tr: newTracer()}
	m.tr.on = cfg.traced
	par := defaultParams()

	// Set-up builds the 256-host world and its shmem_init snapshot, and
	// runs one warm-up op; the last repetition leaves both cached.
	for r := 0; r <= ringSetupReps; r++ {
		t0 := time.Now()
		s := m.tr.begin("setup", -1)
		drainWorldPool()
		drainSnapshots()
		scaleWorkloadTime(par, ringPEs, ringPutBytes)
		m.tr.end(s)
		m.setupS = append(m.setupS, time.Since(t0).Seconds())
	}

	cow0 := cowPagesCopied()
	op := 0
	var end simTime
	err := m.loop(cfg, func(index int, traced bool) (int, error) {
		for i := 0; i < ringBlockOps; i, op = i+1, op+1 {
			e0 := virtualEvents()
			t0 := time.Now()
			so := m.tr.begin("op", int64(op))
			s := m.tr.begin("bench.ScaleWorkloadTime", int64(op))
			end = scaleWorkloadTime(par, ringPEs, ringPutBytes)
			m.tr.end(s)
			m.tr.end(so)
			if !traced {
				m.opMs = append(m.opMs, float64(time.Since(t0))/1e6)
			}
			m.attempted++
			if end != simTimeFromNs(ringEndNs) || virtualEvents()-e0 != ringEvents {
				m.failed++
			}
		}
		return ringBlockOps, nil
	})
	if err != nil {
		return nil, err
	}
	m.liveHeapMiB = liveHeapMiB()
	m.virtUsPerOp = timeMicros(end)
	m.eventsPerOp = ringEvents
	m.counts["mem.cow_pages_per_op"] = float64(cowPagesCopied()-cow0) / float64(m.opsTotal)
	return m, nil
}

// ---- put1m / get64k ----

// standingSpec describes a standing-world workload: a 3-host DMA ring
// built once, then ops of "PE 0 moves size bytes, BarrierAll".
type standingSpec struct {
	size     int
	get      bool // PE 0 gets from PE 2 (two rightward hops) instead of putting to PE 1
	blockOps int  // a multiple of fullCheckEvery, so every block simulates the same work
}

// fullCheckEvery is how often an op's whole payload, not only its
// stamp, is compared.
const fullCheckEvery = 256

// mix is splitmix64 over (seed, i): the per-op stamp and offset stream
// both sides of a transfer derive independently.
func mix(seed int64, i int) uint64 {
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// standing is the state shared by the PE bodies of one standing world.
// The simulator runs one process at a time and hands off through
// channels, so plain fields are safe.
type standing struct {
	spec standingSpec
	cfg  runConfig
	m    *measurement
	data []byte // seeded payload: the put source, or PE 2's symmetric object
	dst  []byte // get destination on PE 0, or PE 1's read-back buffer for a put's full check
	c    *cluster
	w    *world

	setupStart, setupEnd time.Time
	stopAfter            int // op index after which every PE leaves the loop; -1 while running

	// Block state, owned by PE 0.
	loopStart  time.Time
	blockStart time.Time
	blockVirt  simTime
	blockEv    uint64
	blockOp    int // index in opMs of the block's first sample
	traced     bool
	virtNs     []int64  // simulated ns per measured block
	eventsBlk  []uint64 // simulated events per measured block
	chunks0    uint64

	// Traced-block tallies.
	rec       *recorder
	opCounts  map[string]int
	ntbCounts map[string]int
	tracedOps int
}

// build constructs a standing world: fabric.New then core.NewWorld.
func (st *standing) build() error {
	st.setupStart = time.Now()
	s := st.m.tr.begin("fabric.New", -1)
	c, err := fabricNew(fabCfg{Sim: simNew(), Par: defaultParams(), Hosts: 3, Kind: kindRing})
	st.m.tr.end(s)
	if err != nil {
		return err
	}
	s = st.m.tr.begin("core.NewWorld", -1)
	st.c, st.w = c, coreNewWorld(c, coreOpts{Mode: modeDMA})
	st.m.tr.end(s)
	return nil
}

// op runs op i on the calling PE: the transfer on PE 0, the barrier on
// everyone, and the check on whichever PE holds the result (PE 0's
// buffer for a get, PE 1's heap for a put). The check compares an
// 8-byte stamp at a seeded offset; every fullCheckEvery-th op compares
// the whole payload instead, and a put then fences that long read from
// the next op with a second barrier. It reports whether the calling
// PE's check failed.
func (st *standing) op(p *proc, e *pe, sym symAddr, i int) (bad bool) {
	id := peID(e)
	off := int(mix(st.cfg.seed, i) % uint64(st.spec.size-8))
	full := i >= 0 && (i+1)%fullCheckEvery == 0
	if id == 0 {
		if st.spec.get {
			if full {
				clear(st.dst)
			} else {
				clear(st.dst[off : off+8])
			}
			s := st.m.tr.begin("PE.GetBytes", int64(i))
			peGet(e, p, 2, sym, st.dst)
			st.m.tr.end(s)
			if full {
				bad = !bytes.Equal(st.dst, st.data)
			} else {
				bad = !bytes.Equal(st.dst[off:off+8], st.data[off:off+8])
			}
		} else {
			binary.LittleEndian.PutUint64(st.data[off:], mix(^st.cfg.seed, i))
			s := st.m.tr.begin("PE.PutBytes", int64(i))
			pePut(e, p, 1, sym, st.data)
			st.m.tr.end(s)
		}
		s := st.m.tr.begin("PE.BarrierAll", int64(i))
		peBarrier(e, p)
		st.m.tr.end(s)
	} else {
		peBarrier(e, p)
	}
	if st.spec.get {
		return bad
	}
	if id == 1 {
		if full {
			peLocalRead(e, p, sym, st.dst)
			bad = !bytes.Equal(st.dst, st.data)
		} else {
			got := st.dst[:8]
			peLocalRead(e, p, sym+symAddr(off), got)
			bad = binary.LittleEndian.Uint64(got) != mix(^st.cfg.seed, i)
		}
	}
	if full {
		peBarrier(e, p)
	}
	return bad
}

// prefix is everything a PE does before the first measured op:
// shmem_malloc, seeding PE 2's object for gets, the first barrier, and
// one warm-up op.
func (st *standing) prefix(p *proc, e *pe) symAddr {
	sym := peMalloc(e, p, st.spec.size)
	if st.spec.get && peID(e) == 2 {
		peLocalWrite(e, p, sym, st.data)
	}
	peBarrier(e, p)
	if st.op(p, e, sym, -1) {
		st.m.failed++
	}
	if peID(e) == 0 {
		st.setupEnd = time.Now()
		st.m.setupS = append(st.m.setupS, st.setupEnd.Sub(st.setupStart).Seconds())
	}
	return sym
}

// setTracing installs or removes the device and op hooks that feed the
// traced blocks' counts, and switches span recording with them.
func (st *standing) setTracing(on bool) {
	st.traced, st.m.tr.on = on, on
	if on {
		traceAttach(st.rec, st.c)
		worldSetOpTrace(st.w, func(ev opEvent) { st.opCounts[ev.Op]++ })
		return
	}
	for _, pt := range clusterPorts(st.c) {
		portSetTrace(pt, nil)
	}
	worldSetOpTrace(st.w, nil)
}

// startBlock and endBlock bracket one block on PE 0.
func (st *standing) startBlock(p *proc, index int) {
	if st.cfg.traced {
		st.setTracing(index%2 == 1)
	}
	st.blockVirt, st.blockEv, st.blockOp = procNow(p), clusterEvents(st.c), len(st.m.opMs)
	st.m.beginHost(st.traced)
	st.blockStart = time.Now()
}

func (st *standing) endBlock(p *proc) {
	hostN := int64(time.Since(st.blockStart))
	st.m.endHost(st.traced)
	st.m.addBlock(block{ops: st.spec.blockOps, hostN: hostN}, st.traced, st.blockOp)
	st.virtNs = append(st.virtNs, simTimeSubNano(procNow(p), st.blockVirt))
	st.eventsBlk = append(st.eventsBlk, clusterEvents(st.c)-st.blockEv)
	if st.traced {
		st.tracedOps += st.spec.blockOps
		for _, ev := range traceEvents(st.rec) {
			st.ntbCounts[ev.Cat]++
		}
		traceReset(st.rec)
	}
}

// body is every PE's program on the kept world. PE 0 drives: it times
// ops and blocks, and announces the last op before entering its barrier
// so the other PEs, which read stopAfter only after leaving that
// barrier, stop with it.
func (st *standing) body(p *proc, e *pe) {
	sym := st.prefix(p, e)
	id := peID(e)
	if id == 0 {
		st.chunks0 = chunksMoved(st.w)
		st.loopStart = time.Now()
	}
	for i := 0; ; i++ {
		var t0 time.Time
		var so int32
		last := (i+1)%st.spec.blockOps == 0
		if id == 0 {
			if i%st.spec.blockOps == 0 {
				st.startBlock(p, i/st.spec.blockOps)
			}
			if last {
				// Counting the block in progress as done: the last op
				// must be announced before the other PEs enter its barrier.
				u, t := len(st.m.untraced), len(st.m.traced)
				if st.traced {
					t++
				} else {
					u++
				}
				if enough(st.cfg, st.loopStart, u, t) {
					st.stopAfter = i
				}
			}
			t0 = time.Now()
			so = st.m.tr.begin("op", int64(i))
		}
		if st.op(p, e, sym, i) {
			st.m.failed++
		}
		if id == 0 {
			st.m.tr.end(so)
			if !st.traced {
				st.m.opMs = append(st.m.opMs, float64(time.Since(t0))/1e6)
			}
			st.m.attempted++
			if last {
				st.endBlock(p)
			}
		}
		if st.stopAfter == i {
			return
		}
	}
}

// chunksMoved sums first-hop and forwarded protocol chunks over the
// world's PEs.
func chunksMoved(w *world) uint64 {
	var n uint64
	for _, e := range worldPEs(w) {
		s := peStats(e)
		n += s.ChunksSent + s.ChunksForwarded
	}
	return n
}

func runStanding(cfg runConfig, spec standingSpec) (*measurement, error) {
	m := &measurement{counts: map[string]float64{}, tr: newTracer()}
	m.tr.on = cfg.traced
	st := &standing{
		spec: spec, cfg: cfg, m: m, stopAfter: -1,
		data: make([]byte, spec.size), rec: traceNew(),
		opCounts: map[string]int{}, ntbCounts: map[string]int{},
	}
	rand.New(rand.NewSource(cfg.seed)).Read(st.data)
	st.dst = make([]byte, spec.size)
	// Sample storage is sized before the measured loop, so the loop's
	// allocation counters see the simulator and not the harness.
	m.opMs = make([]float64, 0, 1<<18)
	m.untraced, m.traced, m.blockAt = make([]block, 0, 1<<12), make([]block, 0, 1<<12), make([]int, 0, 1<<12)
	st.virtNs, st.eventsBlk = make([]int64, 0, 1<<12), make([]uint64, 0, 1<<12)

	// Set-up: construction, shmem_init, shmem_malloc and one warm-up
	// op. The first standingSetupReps worlds are torn down again; the last one
	// stays and runs the measured loop.
	for r := 0; r < standingSetupReps; r++ {
		s := m.tr.begin("setup", -1)
		if err := st.build(); err != nil {
			return nil, err
		}
		err := worldRun(st.w, func(p *proc, e *pe) { st.prefix(p, e) })
		m.tr.end(s)
		if err != nil {
			return nil, err
		}
	}
	if err := st.build(); err != nil {
		return nil, err
	}
	s := m.tr.begin("World.RunKeep", -1)
	err := worldRunKeep(st.w, st.body)
	m.tr.end(s)
	if err != nil {
		clusterShutdown(st.c)
		return nil, err
	}
	m.liveHeapMiB = liveHeapMiB()
	chunks := chunksMoved(st.w) - st.chunks0
	clusterShutdown(st.c)

	// Every block covers the same ops at the same phase of the
	// full-check cycle, so a deterministic simulator gives each the same
	// simulated length and event count. A difference is a determinism
	// failure, not noise.
	for i := range st.virtNs {
		if st.virtNs[i] != st.virtNs[0] || st.eventsBlk[i] != st.eventsBlk[0] {
			return nil, fmt.Errorf("block %d simulated %d ns / %d events, block 0 %d ns / %d events",
				i, st.virtNs[i], st.eventsBlk[i], st.virtNs[0], st.eventsBlk[0])
		}
	}
	ops := float64(spec.blockOps)
	m.virtUsPerOp = float64(st.virtNs[0]) / 1e3 / ops
	m.eventsPerOp = float64(st.eventsBlk[0]) / ops
	m.counts["core.chunks_per_op"] = float64(chunks) / float64(m.opsTotal)
	if t := float64(st.tracedOps); t > 0 {
		m.counts["core.puts_per_op"] = float64(st.opCounts["put"]) / t
		m.counts["core.gets_per_op"] = float64(st.opCounts["get"]) / t
		m.counts["ntb.doorbells_per_op"] = float64(st.ntbCounts["doorbell"]) / t
		m.counts["ntb.dma_descs_per_op"] = float64(st.ntbCounts["dma"]) / t
		m.counts["ntb.spad_ops_per_op"] = float64(st.ntbCounts["spad"]) / t
	}
	return m, nil
}

// ---- simulated results reported with every workload ----

// The plot-read anchors EXPERIMENTS.md cites for the paper's Fig 8
// (independent link, 512 KB) and Fig 9(c)/(d) (put/get saturation).
// They were read off the paper's plots, not measured.
const (
	anchorFig8MBps = 2750.0
	anchorPutMBps  = 350.0
	anchorGetMBps  = 45.0
)

// fidelity is the simulated answer at this commit, reported beside
// every host-time number so a simulator speed-up that moved a result
// shows. The values are the 512 KB cells of Fig 8(a), Fig 9(c), Fig 9(d)
// and Fig 10 (DMA, 1 hop) and must repeat exactly.
type fidelity struct {
	putMBps, getMBps, barrierUs, anchorErrPct float64
}

func measureFidelity() fidelity {
	par := defaultParams()
	const size = 512 << 10
	mbps := func(us float64) float64 { return benchMBps(size, int64(us*1e3)) }
	f := fidelity{
		putMBps:   mbps(measureShmemOp(par, opPut, modeDMA, 1, size, 10)),
		getMBps:   mbps(measureShmemOp(par, opGet, modeDMA, 1, size, 10)),
		barrierUs: measureBarrierAfter(par, modeDMA, 1, size, 10),
	}
	rel := func(got, want float64) float64 { return math.Abs(got-want) / want }
	f.anchorErrPct = 100 * (rel(fig8Independent(par, 0, size), anchorFig8MBps) +
		rel(f.putMBps, anchorPutMBps) + rel(f.getMBps, anchorGetMBps)) / 3
	return f
}

// peakRSSMiB reads the process's high-water resident set from
// /proc/self/status; 0 where that file does not exist.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

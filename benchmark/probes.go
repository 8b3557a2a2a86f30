package main

import (
	"fmt"
	"os"
	"runtime"
	"time"
)

// Layer probes: micro-drivers that time one layer's exported calls in
// isolation, from outside the program. Each probe does a fixed amount
// of work probeReps times and reports the median host cost per unit, so
// a layer's number can be set against the end-to-end metric it should
// move (README.md holds that prediction table). Probes run after the
// traced workload pass and share nothing with it.

const probeReps = 5

// perUnit runs fn — which performs units units of the probed work and
// returns the host ns it timed — probeReps times and returns the median
// ns per unit.
func perUnit(units int, fn func() (hostN int64, err error)) (float64, error) {
	xs := make([]float64, 0, probeReps)
	for r := 0; r < probeReps; r++ {
		ns, err := fn()
		if err != nil {
			return 0, err
		}
		xs = append(xs, float64(ns)/float64(units))
	}
	return median(xs), nil
}

// timeSim runs a prepared simulator to completion, shuts it down, and
// returns the host ns Run took.
func timeSim(s *simT) (int64, error) {
	t0 := time.Now()
	err := simRun(s)
	ns := int64(time.Since(t0))
	simShutdown(s)
	return ns, err
}

// probe is one named measurement.
type probe struct {
	name string
	run  func() (float64, error)
}

// runProbes runs every layer probe and returns the values by per-layer
// metric name.
func runProbes() (map[string]float64, error) {
	// The workload pass may have left a gigabyte of pooled worlds behind.
	drainWorldPool()
	drainSnapshots()
	runtime.GC()

	out := map[string]float64{}
	for _, pr := range allProbes() {
		t0 := time.Now()
		v, err := pr.run()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pr.name, err)
		}
		out[pr.name] = v
		fmt.Fprintf(os.Stderr, "  probe %-34s %14.3f  (%.2f s)\n", pr.name, v, time.Since(t0).Seconds())
	}
	drainWorldPool()
	drainSnapshots()
	return out, nil
}

func allProbes() []probe {
	par := defaultParams()
	ps := []probe{
		{"sim.handoff_ns", probeHandoff},
		{"sim.handoff_ns_gmp2", func() (float64, error) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
			return probeHandoff()
		}},
		{"sim.callback_ns", probeCallback},
		{"sim.pingpong_ns", probePingPong},
		{"pcie.flow_churn_ns", func() (float64, error) { return probeFlows(1) }},
		{"pcie.flow_solve16_ns", func() (float64, error) { return probeFlows(16) }},
		{"ntb.doorbell_ns", func() (float64, error) {
			return probePort(20000, func(p *proc, a, _ *port, _ []byte) { portPeerDBSet(a, p, 1) })
		}},
		{"ntb.spad_rw_ns", func() (float64, error) {
			return probePort(20000, func(p *proc, a, b *port, _ []byte) {
				portPeerSpadWr(a, p, 0, 7)
				portSpadRead(b, p, 0)
			})
		}},
		{"ntb.cpuwrite_4k_ns", func() (float64, error) {
			return probePort(20000, func(p *proc, a, _ *port, buf []byte) { portCPUWrite(a, p, regionData, 0, buf[:4096]) })
		}},
		{"ntb.dma_1m_us", func() (float64, error) {
			chunk := parPutChunk(par)
			ns, err := probePort(200, func(p *proc, a, _ *port, buf []byte) {
				for off := 0; off < 1<<20; off += chunk {
					portDMASubmitWait(a, p, dmaDesc{Region: regionData, Src: buf[off : off+chunk], Bytes: chunk})
				}
			})
			return ns / 1e3, err
		}},
		{"driver.sendchunk_ns", func() (float64, error) { return probeSendChunk(0) }},
		{"driver.pipe_sendchunk_ns", func() (float64, error) { return probeSendChunk(4) }},
		{"mem.alloc_free_ns", probeHeapAllocFree},
		{"mem.write_1m_us", probeHeapWrite},
		{"mem.snapshot_us", func() (float64, error) { return probeHeapSnapFork(false) }},
		{"mem.fork_us", func() (float64, error) { return probeHeapSnapFork(true) }},
		{"fabric.new_ms.ring3", func() (float64, error) { return probeBuild(20, clusterOf(kindRing, 3)) }},
		{"fabric.new_ms.ring256", func() (float64, error) { return probeBuild(1, clusterOf(kindRing, 256)) }},
		{"fabric.new_ms.switch16", func() (float64, error) { return probeBuild(2, clusterOf(kindSwitch, 16)) }},
		{"fabric.new_ms.cxl16", func() (float64, error) { return probeBuild(2, clusterOf(kindCXL, 16)) }},
		{"fabric.new_alloc_mib.ring256", probeFabricAlloc},
		{"fabric.put4k_ns.ring", func() (float64, error) { return probePut4k(kindRing, 16) }},
		{"fabric.put4k_ns.pair", func() (float64, error) { return probePut4k(kindPair, 2) }},
		{"fabric.put4k_ns.switch", func() (float64, error) { return probePut4k(kindSwitch, 16) }},
		{"fabric.put4k_ns.cxl", func() (float64, error) { return probePut4k(kindCXL, 16) }},
		{"core.world_new_ms.n3", func() (float64, error) { return probeBuild(20, worldOf(3)) }},
		{"core.world_new_ms.n256", func() (float64, error) { return probeBuild(1, worldOf(256)) }},
		{"core.init_ms", probeInit},
		{"core.init_alloc_mib.n3", probeInitAlloc},
		{"core.reset_us.n3", func() (float64, error) { return probeReset(3, 20) }},
		{"core.reset_us.n256", func() (float64, error) { return probeReset(256, 2) }},
		{"core.snapshot_us", func() (float64, error) { return probeWorldSnapFork(false) }},
		{"core.fork_us", func() (float64, error) { return probeWorldSnapFork(true) }},
		{"core.barrier_ns.n3", func() (float64, error) {
			return probeWorldOps(2000, func(p *proc, e *pe, _ symAddr) { peBarrier(e, p) })
		}},
		{"core.amo_ns", func() (float64, error) {
			return probeWorldOps(2000, func(p *proc, e *pe, sym symAddr) {
				if peID(e) == 0 {
					peFetchAdd(e, p, 1, sym, 1)
				}
			})
		}},
		{"bench.forks_per_s", probeForks},
	}
	for _, n := range []int{16, 256, 1024} {
		n := n
		ps = append(ps, probe{fmt.Sprintf("sim.scale_ns_per_event.n%d", n), func() (float64, error) { return probeScale(n) }})
	}
	return ps
}

// ---- sim ----

// probeHandoff: 16 processes in Sleep loops, the kernel's park/wake
// handshake and timer queue with no model work. Host ns per event.
func probeHandoff() (float64, error) {
	const procs, sleeps = 16, 8000
	return perUnit(procs*sleeps, func() (int64, error) {
		s := simNew()
		for i := 0; i < procs; i++ {
			stride := microsecond + microsecond*7*simDuration(i)/16
			simGo(s, "sleeper", func(p *proc) {
				for n := 0; n < sleeps; n++ {
					procSleep(p, stride)
				}
			})
		}
		return timeSim(s)
	})
}

// probeCallback: chains of After callbacks with no process at all — the
// ladder queue's push/pop plus dispatch. Host ns per event.
func probeCallback() (float64, error) {
	const chains, links = 16, 16000
	return perUnit(chains*links, func() (int64, error) {
		s := simNew()
		for i := 0; i < chains; i++ {
			left := links
			stride := microsecond + microsecond*7*simDuration(i)/16
			var fire func()
			fire = func() {
				if left--; left > 0 {
					simAfter(s, stride, fire)
				}
			}
			simAfter(s, stride, fire)
		}
		return timeSim(s)
	})
}

// probePingPong: two processes alternating over a pair of Queues at one
// timestamp. Host ns per round trip.
func probePingPong() (float64, error) {
	const rounds = 50000
	return perUnit(rounds, func() (int64, error) {
		s := simNew()
		ping, pong := newIntQueue("ping"), newIntQueue("pong")
		simGo(s, "producer", func(p *proc) {
			for n := 0; n < rounds; n++ {
				queuePush(ping, n)
				queuePop(pong, p)
			}
		})
		simGo(s, "consumer", func(p *proc) {
			for n := 0; n < rounds; n++ {
				queuePop(ping, p)
				queuePush(pong, n)
			}
		})
		return timeSim(s)
	})
}

// probeScale: the ring256 workload's body at other ring sizes, the
// working-set ladder behind the 16→1024-PE ns/event curve. Host ns per
// simulated event on a pooled world.
func probeScale(n int) (float64, error) {
	par := defaultParams()
	worlds := 4096 / n // ≈400 k events per repetition
	if worlds < 2 {
		worlds = 2
	}
	scaleWorkloadTime(par, n, ringPutBytes) // builds and pools the world
	var events uint64
	v, err := perUnit(1, func() (int64, error) {
		e0 := virtualEvents()
		t0 := time.Now()
		for i := 0; i < worlds; i++ {
			scaleWorkloadTime(par, n, ringPutBytes)
		}
		ns := int64(time.Since(t0))
		events = virtualEvents() - e0
		return ns, nil
	})
	drainWorldPool()
	drainSnapshots()
	return v / float64(events), err
}

// ---- pcie ----

// probeFlows: flows concurrent 32 KiB transfers over one three-server
// route, started and run to completion back to back. Host ns per
// transfer; one flow is pure start→done churn, sixteen make every start
// and finish re-solve the shared servers.
func probeFlows(flows int) (float64, error) {
	const transfers = 16000
	per := transfers / flows
	return perUnit(per*flows, func() (int64, error) {
		s := simNew()
		net := pcieNewNetwork(s)
		rt := pcieNewRoute(net, pcieNewServer("rcA", 5.5e9), pcieNewServer("wire", 7.2e9), pcieNewServer("rcB", 5.5e9))
		for i := 0; i < flows; i++ {
			simGo(s, "flow", func(p *proc) {
				for j := 0; j < per; j++ {
					pcieTransferRoute(net, p, 32<<10, 2.9e9, rt)
				}
			})
		}
		return timeSim(s)
	})
}

// ---- ntb ----

// portPair cables two NTB ports on one simulator, as a two-host link.
func portPair(s *simT) (a, b *port) {
	par := defaultParams()
	net := pcieNewNetwork(s)
	a = ntbNewPort("A", s, net, par, pcieNewServer("rcA", parRootComplex(par)))
	b = ntbNewPort("B", s, net, par, pcieNewServer("rcB", parRootComplex(par)))
	ntbConnect(a, b)
	return a, b
}

// probePort runs op n times from one process on a cabled port pair.
// Host ns per op.
func probePort(n int, op func(p *proc, a, b *port, buf []byte)) (float64, error) {
	buf := make([]byte, 1<<20)
	return perUnit(n, func() (int64, error) {
		s := simNew()
		a, b := portPair(s)
		portSetISR(b, func(uint16) {})
		simGo(s, "driver", func(p *proc) {
			for i := 0; i < n; i++ {
				op(p, a, b, buf)
			}
		})
		return timeSim(s)
	})
}

// ---- driver ----

// probeSendChunk: one sender pushing 16 KiB DMA chunks to a service
// daemon that acknowledges each, over the paper's stop-and-wait
// TxChannel (slots 0) or a slots-deep PipeTx. Host ns per chunk.
func probeSendChunk(slots int) (float64, error) {
	const chunks, size = 4000, 16 << 10
	buf := make([]byte, size)
	return perUnit(chunks, func() (int64, error) {
		par := defaultParams()
		s := simNew()
		a, b := portPair(s)
		epA, epB := drvNewEndpoint(a), drvNewEndpoint(b)
		q := newIntQueue("svc")
		epHandle(epB, vecPut, func() { queuePush(q, 0) })
		var tx sender
		if slots == 0 {
			tx = drvNewTxChannel(epA, par)
			simGoDaemon(s, "svc", func(p *proc) {
				for {
					queuePop(q, p)
					procSleep(p, parServiceWake(par))
					drvReadInfo(p, b)
					drvAck(p, b)
				}
			})
		} else {
			tx = drvNewPipeTx(epA, par, slots)
			rx := drvNewPipeRx(b, par, slots)
			simGoDaemon(s, "svc", func(p *proc) {
				for {
					queuePop(q, p)
					procSleep(p, parServiceWake(par))
					for {
						if _, _, ok := pipeRxNext(rx, p); !ok {
							break
						}
						pipeRxRelease(rx, p)
					}
				}
			})
		}
		simGo(s, "sender", func(p *proc) {
			info := drvInfo{Kind: kindPut, Dst: 1, Size: size}
			for i := 0; i < chunks; i++ {
				senderSendChunk(tx, p, info, payload{Buf: buf, N: size}, modeDMA)
			}
		})
		return timeSim(s)
	})
}

// ---- mem ----

func probeHeapAllocFree() (float64, error) {
	const n = 64000
	par := defaultParams()
	return perUnit(n, func() (int64, error) {
		h := memNewHeap(parSymHeapShape(par))
		offs := make([]int64, 0, 64)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			off, err := heapAlloc(h, 1000)
			if err != nil {
				return 0, err
			}
			if offs = append(offs, off); len(offs) == 64 {
				for _, o := range offs {
					if err := heapFree(h, o); err != nil {
						return 0, err
					}
				}
				offs = offs[:0]
			}
		}
		return int64(time.Since(t0)), nil
	})
}

// heapWith1M returns a heap holding one written 1 MiB allocation.
func heapWith1M() (*heap, int64, []byte, error) {
	par := defaultParams()
	h := memNewHeap(parSymHeapShape(par))
	off, err := heapAlloc(h, 1<<20)
	buf := make([]byte, 1<<20)
	if err == nil {
		heapWrite(h, off, buf)
	}
	return h, off, buf, err
}

func probeHeapWrite() (float64, error) {
	const n = 200
	h, off, buf, err := heapWith1M()
	if err != nil {
		return 0, err
	}
	ns, err := perUnit(n, func() (int64, error) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			heapWrite(h, off, buf)
		}
		return int64(time.Since(t0)), nil
	})
	return ns / 1e3, err
}

// probeHeapSnapFork times Heap.Snapshot of a heap with 1 MiB written,
// or — for fork — Heap.Fork of a reset heap onto such a snapshot plus
// the Reset that readies the heap for the next fork. Host µs per call.
func probeHeapSnapFork(fork bool) (float64, error) {
	const n = 2000
	h, _, _, err := heapWith1M()
	if err != nil {
		return 0, err
	}
	snap := heapSnapshot(h)
	child := memNewHeap(parSymHeapShape(defaultParams()))
	ns, err := perUnit(n, func() (int64, error) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if fork {
				heapFork(child, snap)
				heapReset(child)
			} else {
				heapSnapshot(h)
			}
		}
		return int64(time.Since(t0)), nil
	})
	return ns / 1e3, err
}

// ---- fabric ----

func newCluster(kind fabKind, hosts int) (*cluster, error) {
	return fabricNew(fabCfg{Sim: simNew(), Par: defaultParams(), Hosts: hosts, Kind: kind})
}

func newWorld(hosts int) (*world, error) {
	c, err := newCluster(kindRing, hosts)
	if err != nil {
		return nil, err
	}
	return coreNewWorld(c, coreOpts{Mode: modeDMA}), nil
}

// clusterOf and worldOf are probeBuild's two constructions: fabric.New
// alone, and fabric.New plus core.NewWorld on a ring.
func clusterOf(kind fabKind, hosts int) func() (*cluster, error) {
	return func() (*cluster, error) { return newCluster(kind, hosts) }
}

func worldOf(hosts int) func() (*cluster, error) {
	return func() (*cluster, error) {
		w, err := newWorld(hosts)
		if err != nil {
			return nil, err
		}
		return worldCluster(w), nil
	}
}

// probeBuild times n constructions per repetition, shutting each one
// down off the clock. Host ms per construction.
func probeBuild(n int, build func() (*cluster, error)) (float64, error) {
	ns, err := perUnit(n, func() (int64, error) {
		var total int64
		for i := 0; i < n; i++ {
			t0 := time.Now()
			c, err := build()
			total += int64(time.Since(t0))
			if err != nil {
				return 0, err
			}
			clusterShutdown(c)
		}
		return total, nil
	})
	return ns / 1e6, err
}

// probeFabricAlloc: bytes the Go heap hands out to build one 256-host
// ring, in MiB.
func probeFabricAlloc() (float64, error) {
	before := readHost()
	c, err := newCluster(kindRing, 256)
	if err != nil {
		return 0, err
	}
	d := before.until(readHost())
	clusterShutdown(c)
	return d.allocBytes / (1 << 20), nil
}

// probePut4k: every PE of a pooled world puts 4 KiB to its right
// neighbour, 64 rounds, on one fabric backend (internal/bench's E6
// point). Host ns per put, world checkout and fork included.
func probePut4k(kind fabKind, hosts int) (float64, error) {
	const rounds = 64
	par := defaultParams()
	benchSetFabric(kind)
	defer benchSetFabric(kindRing)
	measureCrossFabric(par, hosts, 4096, rounds) // builds and pools the world
	return perUnit(hosts*rounds, func() (int64, error) {
		t0 := time.Now()
		measureCrossFabric(par, hosts, 4096, rounds)
		return int64(time.Since(t0)), nil
	})
}

// ---- core ----

// probeInit: daemon boot plus shmem_init on a fresh 3-host world — a
// RunKeep of an empty body. Host ms per world.
func probeInit() (float64, error) {
	const n = 20
	ns, err := perUnit(n, func() (int64, error) {
		var total int64
		for i := 0; i < n; i++ {
			w, err := newWorld(3)
			if err != nil {
				return 0, err
			}
			t0 := time.Now()
			err = worldRunKeep(w, func(*proc, *pe) {})
			total += int64(time.Since(t0))
			clusterShutdown(worldCluster(w))
			if err != nil {
				return 0, err
			}
		}
		return total, nil
	})
	return ns / 1e6, err
}

// probeInitAlloc: MiB the Go heap hands out for that first run of a
// 3-host world — the NTB windows and symmetric heaps are allocated
// here, not in fabric.New.
func probeInitAlloc() (float64, error) {
	w, err := newWorld(3)
	if err != nil {
		return 0, err
	}
	defer clusterShutdown(worldCluster(w))
	before := readHost()
	err = worldRunKeep(w, func(*proc, *pe) {})
	return before.until(readHost()).allocBytes / (1 << 20), err
}

// probeReset: World.Reset after a run of one neighbour put between two
// barriers. Host µs per reset.
func probeReset(hosts, n int) (float64, error) {
	w, err := newWorld(hosts)
	if err != nil {
		return 0, err
	}
	defer clusterShutdown(worldCluster(w))
	buf := make([]byte, 4096)
	ns, err := perUnit(n, func() (int64, error) {
		var total int64
		for i := 0; i < n; i++ {
			err := worldRunKeep(w, func(p *proc, e *pe) {
				sym := peMalloc(e, p, len(buf))
				peBarrier(e, p)
				pePut(e, p, (peID(e)+1)%hosts, sym, buf)
				peBarrier(e, p)
			})
			if err != nil {
				return 0, err
			}
			t0 := time.Now()
			worldReset(w)
			total += int64(time.Since(t0))
		}
		return total, nil
	})
	return ns / 1e3, err
}

// probeWorldSnapFork times World.Snapshot of a finished 3-host run that
// wrote 64 KiB per PE, or World.Fork of the same world back onto that
// snapshot (which includes the Reset a fork starts with). Host µs per
// call.
func probeWorldSnapFork(fork bool) (float64, error) {
	const n = 200
	w, err := newWorld(3)
	if err != nil {
		return 0, err
	}
	defer clusterShutdown(worldCluster(w))
	buf := make([]byte, 64<<10)
	err = worldRunKeep(w, func(p *proc, e *pe) {
		sym := peMalloc(e, p, len(buf))
		peBarrier(e, p)
		pePut(e, p, (peID(e)+1)%3, sym, buf)
		peBarrier(e, p)
	})
	if err != nil {
		return 0, err
	}
	snap := worldSnapshot(w)
	ns, err := perUnit(n, func() (int64, error) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if fork {
				worldFork(w, snap)
			} else {
				worldSnapshot(w)
			}
		}
		return int64(time.Since(t0)), nil
	})
	return ns / 1e3, err
}

// probeWorldOps runs op n times on every PE of a standing 3-host DMA
// world after one warm-up call. Host ns per op.
func probeWorldOps(n int, op func(p *proc, e *pe, sym symAddr)) (float64, error) {
	return perUnit(n, func() (int64, error) {
		w, err := newWorld(3)
		if err != nil {
			return 0, err
		}
		var t0 time.Time
		var ns int64
		err = worldRun(w, func(p *proc, e *pe) {
			sym := peMalloc(e, p, 64)
			peBarrier(e, p)
			op(p, e, sym)
			if peID(e) == 0 {
				t0 = time.Now()
			}
			for i := 0; i < n; i++ {
				op(p, e, sym)
			}
			peBarrier(e, p)
			if peID(e) == 0 {
				ns = int64(time.Since(t0))
			}
		})
		return ns, err
	})
}

// ---- bench ----

// probeForks: internal/bench's prefix-heavy fork probe (cmd/reproduce
// -fork-ab's workload), 64 points sharing one warm-up. Forks per host
// second.
func probeForks() (float64, error) {
	const points = 64
	par := defaultParams()
	forkProbePoint(par, 3, 48, 65536, 0) // builds the shared prefix
	var forks uint64
	ns, err := perUnit(1, func() (int64, error) {
		f0, _, _ := forkStats()
		t0 := time.Now()
		for pt := 0; pt < points; pt++ {
			forkProbePoint(par, 3, 48, 65536, pt)
		}
		ns := int64(time.Since(t0))
		f1, _, _ := forkStats()
		forks = f1 - f0
		return ns, nil
	})
	return float64(forks) / (ns / 1e9), err
}

package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/model"
	"repro/internal/sim"
)

// Ablation studies beyond the paper's evaluation, indexed in DESIGN.md:
//
//	A1: barrier-algorithm choice (the paper argues the ring start/end
//	    protocol suits the switchless fabric; we price the alternatives);
//	A2: Get stop-and-wait chunk size (the protocol constant that sets
//	    the paper's Get throughput ceiling);
//	A3: ring-size scaling of put/get latency (hop sensitivity beyond the
//	    3-host testbed).

// MeasureBarrierLatency returns the mean barrier latency (us) for a ring
// of n hosts under the given algorithm.
func MeasureBarrierLatency(par *model.Params, algo core.BarrierAlgo, n, reps int) float64 {
	var total sim.Duration
	label := fmt.Sprintf("barrier %s/n=%d", algo, n)
	runRingWorld(label, par, n, core.Options{Barrier: algo}, func(p *sim.Proc, pe *core.PE) {
		pe.BarrierAll(p)
		for r := 0; r < reps; r++ {
			start := p.Now()
			pe.BarrierAll(p)
			if pe.ID() == 0 {
				total += p.Now().Sub(start)
			}
		}
	})
	return total.Microseconds() / float64(reps)
}

// RunAblationBarrierAlgo sweeps barrier algorithms over ring sizes 2-8.
func RunAblationBarrierAlgo(par *model.Params) *Figure {
	f := &Figure{
		ID:     "A1",
		Title:  "Barrier algorithm latency vs ring size",
		XLabel: "Hosts",
		Unit:   "us",
	}
	algos := []core.BarrierAlgo{core.BarrierRing, core.BarrierCentral, core.BarrierDissemination}
	type cellKey struct {
		algo core.BarrierAlgo
		n    int
	}
	var keys []cellKey
	for _, algo := range algos {
		for n := 2; n <= 8; n++ {
			keys = append(keys, cellKey{algo, n})
		}
	}
	vals := RunPoints(keys, func(k cellKey) float64 {
		return MeasureBarrierLatency(par, k.algo, k.n, 10)
	})
	for ai, algo := range algos {
		series := Series{Label: algo.String(), Points: make([]Point, 0, 7)}
		for ni := 0; ni < 7; ni++ {
			series.Points = append(series.Points, Point{ni + 2, vals[ai*7+ni]})
		}
		f.Series = append(f.Series, series)
	}
	return f
}

// RunAblationGetChunk sweeps the Get protocol's stop-and-wait chunk size
// and reports Get throughput at 512 KiB, 1 hop, DMA mode.
func RunAblationGetChunk(par *model.Params) *Figure {
	f := &Figure{
		ID:     "A2",
		Title:  "Get throughput vs stop-and-wait chunk size (512KB, 1 hop, DMA)",
		XLabel: "Chunk Size",
		Unit:   "MB/s",
	}
	series := Series{Label: "Get 512KB"}
	const size = 512 << 10
	var chunks []int
	for chunk := 2 << 10; chunk <= 256<<10; chunk <<= 1 {
		chunks = append(chunks, chunk)
	}
	vals := RunPoints(chunks, func(chunk int) float64 {
		p2 := par.Clone()
		p2.GetChunk = chunk
		return MeasureShmemOp(p2, OpGet, driver.ModeDMA, 1, size, 5)
	})
	for i, chunk := range chunks {
		series.Points = append(series.Points, Point{chunk, MBps(size, int64(vals[i]*1e3))})
	}
	f.Series = append(f.Series, series)
	return f
}

// RunAblationRingSize measures put and get latency (64 KiB, DMA) from PE
// 0 to the farthest PE as the ring grows, exposing the linear hop cost
// of the switchless topology.
func RunAblationRingSize(par *model.Params) *Figure {
	f := &Figure{
		ID:     "A3",
		Title:  "Put/Get latency to farthest PE vs ring size (64KB, DMA)",
		XLabel: "Hosts",
		Unit:   "us",
	}
	put := Series{Label: "put"}
	get := Series{Label: "get"}
	const size = 64 << 10
	ns := []int{2, 3, 4, 5, 6, 7, 8}
	type pg struct{ put, get float64 }
	vals := RunPoints(ns, func(n int) pg {
		pl, gl := MeasureFarthest(par, n, size)
		return pg{pl, gl}
	})
	for i, n := range ns {
		put.Points = append(put.Points, Point{n, vals[i].put})
		get.Points = append(get.Points, Point{n, vals[i].get})
	}
	f.Series = append(f.Series, put, get)
	return f
}

// RunGenerationComparison is extension figure E1: raw link rate and
// OpenSHMEM put/get throughput at 512 KiB across PCIe generations — what
// the prototype would deliver on older or wider links.
func RunGenerationComparison() *Figure {
	f := &Figure{
		ID:     "E1",
		Title:  "Raw link and OpenSHMEM throughput by PCIe profile (512KB, DMA, 1 hop)",
		XLabel: "Profile",
		Unit:   "MB/s",
	}
	f.XNames = make(map[int]string)
	raw := Series{Label: "raw NTB link"}
	put := Series{Label: "shmem put"}
	get := Series{Label: "shmem get"}
	const size = 512 << 10
	names := model.Names()
	type cell struct{ raw, putMBps, getMBps float64 }
	cells := RunPoints(names, func(name string) cell {
		par, err := model.Profile(name)
		if err != nil {
			panic(err)
		}
		pl := MeasureShmemOp(par, OpPut, driver.ModeDMA, 1, size, 5)
		gl := MeasureShmemOp(par, OpGet, driver.ModeDMA, 1, size, 5)
		return cell{
			raw:     Fig8Independent(par, 0, size),
			putMBps: MBps(size, int64(pl*1e3)),
			getMBps: MBps(size, int64(gl*1e3)),
		}
	})
	for i, name := range names {
		f.XNames[i+1] = name
		x := i + 1 // ordinal; the table prints names separately
		raw.Points = append(raw.Points, Point{x, cells[i].raw})
		put.Points = append(put.Points, Point{x, cells[i].putMBps})
		get.Points = append(get.Points, Point{x, cells[i].getMBps})
	}
	f.Series = append(f.Series, raw, put, get)
	return f
}

// RunAblationBroadcast is ablation A5: the linear root-fanout broadcast
// (each destination a separate ring transfer) against the ring-pipelined
// broadcast, by payload size on a 6-host ring.
func RunAblationBroadcast(par *model.Params) *Figure {
	f := &Figure{
		ID:     "A5",
		Title:  "Broadcast algorithm latency (6 hosts, DMA)",
		XLabel: "Request Size",
		Unit:   "us",
	}
	linear := Series{Label: "linear fanout"}
	pipe := Series{Label: "ring pipeline"}
	// Sweep past the paper's 512KB to expose the crossover: small
	// payloads favour the transport's native store-and-forward fanout
	// (relays run on hot service threads), large ones the pipeline
	// (payload crosses the root's link once instead of n-1 times).
	var sizes []int
	for size := 16 << 10; size <= 8<<20; size <<= 1 {
		sizes = append(sizes, size)
	}
	type lp struct{ linear, pipe float64 }
	vals := runPointsCost(sizes, func(_ int, size int) float64 {
		return float64(size)
	}, func(size int) lp {
		l, pl := MeasureBroadcast(par, 6, size)
		return lp{l, pl}
	})
	for i, size := range sizes {
		linear.Points = append(linear.Points, Point{size, vals[i].linear})
		pipe.Points = append(pipe.Points, Point{size, vals[i].pipe})
	}
	f.Series = append(f.Series, linear, pipe)
	return f
}

// MeasureBroadcast returns (linear, pipelined) broadcast latencies in
// microseconds for one payload size on an n-host ring, measured at the
// root from call to collective completion.
func MeasureBroadcast(par *model.Params, n, size int) (linearUS, pipeUS float64) {
	run := func(pipelined bool) float64 {
		var us float64
		label := fmt.Sprintf("broadcast pipelined=%v/n=%d/size=%d", pipelined, n, size)
		runRingWorld(label, par, n, core.Options{}, func(p *sim.Proc, pe *core.PE) {
			sym := pe.MustMalloc(p, size)
			pe.BarrierAll(p)
			start := p.Now()
			if pipelined {
				pe.BroadcastBytesPipelined(p, 0, sym, size)
			} else {
				pe.BroadcastBytes(p, 0, sym, size)
			}
			if pe.ID() == 0 {
				us = p.Now().Sub(start).Microseconds()
			}
		})
		return us
	}
	return run(false), run(true)
}

// RunCollectiveLatency is extension figure E5: latency of the collective
// operations (reduce, fcollect, all-to-all, broadcast) versus ring size
// at a fixed 8 KiB payload — the collectives' scaling story on the
// switchless ring.
func RunCollectiveLatency(par *model.Params) *Figure {
	f := &Figure{
		ID:     "E5",
		Title:  "Collective latency vs ring size (8KB contribution, DMA)",
		XLabel: "Hosts",
		Unit:   "us",
	}
	kinds := []string{"reduce", "fcollect", "alltoall", "broadcast"}
	series := make([]Series, len(kinds))
	for i, k := range kinds {
		series[i].Label = k
	}
	ns := []int{2, 3, 4, 5, 6, 7, 8}
	lats := RunPoints(ns, func(n int) map[string]float64 {
		return MeasureCollectives(par, n, 8<<10)
	})
	for ni, n := range ns {
		for i, k := range kinds {
			series[i].Points = append(series[i].Points, Point{n, lats[ni][k]})
		}
	}
	f.Series = append(f.Series, series...)
	return f
}

// MeasureCollectives returns per-collective mean latencies (us) on an
// n-host ring with `size`-byte contributions.
func MeasureCollectives(par *model.Params, n, size int) map[string]float64 {
	out := map[string]float64{}
	elems := size / 8
	label := fmt.Sprintf("collectives n=%d/size=%d", n, size)
	runRingWorld(label, par, n, core.Options{}, func(p *sim.Proc, pe *core.PE) {
		src := pe.MustMalloc(p, size)
		dst := pe.MustMalloc(p, size*n)
		pe.BarrierAll(p)
		measure := func(name string, op func()) {
			start := p.Now()
			op()
			if pe.ID() == 0 {
				out[name] = p.Now().Sub(start).Microseconds()
			}
		}
		measure("reduce", func() { core.Reduce[int64](p, pe, core.OpSum, src, src, elems) })
		measure("fcollect", func() { pe.FCollectBytes(p, src, dst, size) })
		measure("alltoall", func() {
			// Use size/n-byte blocks so the total matches the others.
			blk := size / n
			if blk == 0 {
				blk = 8
			}
			pe.AllToAllBytes(p, dst, dst, blk)
		})
		measure("broadcast", func() { pe.BroadcastBytes(p, 0, src, size) })
	})
	return out
}

// RunAblationWakeCost is ablation A7: sensitivity of every headline
// metric to the service-thread wake cost, the component E4 shows
// dominating all protocol cycles. The sweep quantifies what faster
// interrupt handling (busy-polling service threads, interrupt
// moderation) would buy the paper's prototype without touching the
// fabric.
func RunAblationWakeCost(par *model.Params) *Figure {
	f := &Figure{
		ID:     "A7",
		Title:  "Sensitivity to service-thread wake cost (512KB put/get us, barrier us)",
		XLabel: "Wake (us)",
		Unit:   "us",
	}
	put := Series{Label: "put 512KB"}
	get := Series{Label: "get 512KB"}
	barrier := Series{Label: "barrier"}
	const size = 512 << 10
	wakes := []int{10, 35, 70, 140, 280}
	type cell struct{ put, get, barrier float64 }
	cells := RunPoints(wakes, func(wakeUS int) cell {
		p2 := par.Clone()
		p2.ServiceWake = sim.Microseconds(float64(wakeUS))
		return cell{
			put:     MeasureShmemOp(p2, OpPut, driver.ModeDMA, 1, size, 5),
			get:     MeasureShmemOp(p2, OpGet, driver.ModeDMA, 1, size, 5),
			barrier: MeasureBarrierLatency(p2, core.BarrierRing, 3, 5),
		}
	})
	for i, wakeUS := range wakes {
		put.Points = append(put.Points, Point{wakeUS, cells[i].put})
		get.Points = append(get.Points, Point{wakeUS, cells[i].get})
		barrier.Points = append(barrier.Points, Point{wakeUS, cells[i].barrier})
	}
	f.Series = append(f.Series, put, get, barrier)
	return f
}

// RunAblationPipeline is ablation A6: put and get throughput (512 KiB,
// 1 hop, DMA) versus link-protocol pipeline depth. Depth "1" is the
// paper's stop-and-wait scratchpad protocol; deeper configurations use
// the header-in-window credit protocol (the paper's future-work latency
// reduction, implemented).
func RunAblationPipeline(par *model.Params) *Figure {
	f := &Figure{
		ID:     "A6",
		Title:  "Throughput vs link-protocol pipeline depth (512KB, 1 hop, DMA)",
		XLabel: "Pipeline Depth",
		Unit:   "MB/s",
	}
	put := Series{Label: "put"}
	get := Series{Label: "get"}
	const size = 512 << 10
	depths := []int{1, 2, 4, 8}
	type pg struct{ put, get float64 }
	vals := RunPoints(depths, func(depth int) pg {
		pl, gl := MeasurePipelined(par, depth, size, 5)
		return pg{pl, gl}
	})
	for i, depth := range depths {
		put.Points = append(put.Points, Point{depth, MBps(size, int64(vals[i].put*1e3))})
		get.Points = append(get.Points, Point{depth, MBps(size, int64(vals[i].get*1e3))})
	}
	f.Series = append(f.Series, put, get)
	return f
}

// MeasurePipelined returns (put, get) mean latencies in microseconds at
// the given pipeline depth (1 = the paper's stop-and-wait protocol).
func MeasurePipelined(par *model.Params, depth, size, reps int) (putUS, getUS float64) {
	opt := core.Options{}
	if depth >= 2 {
		opt.Pipeline = depth
	}
	label := fmt.Sprintf("pipelined depth=%d/size=%d", depth, size)
	runRingWorld(label, par, 3, opt, func(p *sim.Proc, pe *core.PE) {
		sym := pe.MustMalloc(p, size)
		buf := make([]byte, size)
		pe.BarrierAll(p)
		if pe.ID() == 0 {
			start := p.Now()
			for r := 0; r < reps; r++ {
				pe.PutBytes(p, 1, sym, buf)
			}
			// Pipelined puts are locally complete on return; include the
			// drain (via barrier-free quiesce through a final blocking
			// get of one byte) so throughput reflects delivered data.
			pe.GetBytes(p, 1, sym, buf[:1])
			putUS = p.Now().Sub(start).Microseconds() / float64(reps)
		}
		pe.BarrierAll(p)
		if pe.ID() == 0 {
			start := p.Now()
			for r := 0; r < reps; r++ {
				pe.GetBytes(p, 1, sym, buf)
			}
			getUS = p.Now().Sub(start).Microseconds() / float64(reps)
		}
		pe.BarrierAll(p)
	})
	return putUS, getUS
}

// RunTwoSidedComparison is extension figure E2: latency of the
// one-sided put against the two-sided tagged send/recv built on top of
// it, per message size — quantifying the rendezvous overhead the
// paper's introduction holds against message passing.
func RunTwoSidedComparison(par *model.Params) *Figure {
	f := &Figure{
		ID:     "E2",
		Title:  "One-sided put vs two-sided send/recv latency (1 hop, DMA)",
		XLabel: "Request Size",
		Unit:   "us",
	}
	put := Series{Label: "shmem put"}
	send := Series{Label: "send/recv"}
	sizes := Sizes()
	type ps struct{ put, send float64 }
	vals := runPointsCost(sizes, func(_ int, size int) float64 {
		return float64(size)
	}, func(size int) ps {
		pl, sl := MeasureTwoSided(par, size, 5)
		return ps{pl, sl}
	})
	for i, size := range sizes {
		put.Points = append(put.Points, Point{size, vals[i].put})
		send.Points = append(send.Points, Point{size, vals[i].send})
	}
	f.Series = append(f.Series, put, send)
	return f
}

// MeasureTwoSided returns (put, send) mean latencies in microseconds for
// one-hop transfers of the given size.
func MeasureTwoSided(par *model.Params, size, reps int) (putUS, sendUS float64) {
	label := fmt.Sprintf("two-sided size=%d", size)
	runRingWorld(label, par, 3, core.Options{}, func(p *sim.Proc, pe *core.PE) {
		sym := pe.MustMalloc(p, size)
		data := make([]byte, size)
		pe.BarrierAll(p)
		if pe.ID() == 0 {
			start := p.Now()
			for r := 0; r < reps; r++ {
				pe.PutBytes(p, 1, sym, data)
			}
			putUS = p.Now().Sub(start).Microseconds() / float64(reps)
		}
		pe.BarrierAll(p)
		switch pe.ID() {
		case 1:
			buf := make([]byte, size)
			for r := 0; r < reps; r++ {
				pe.Recv(p, 0, int64(r), buf)
			}
		case 0:
			start := p.Now()
			for r := 0; r < reps; r++ {
				pe.Send(p, 1, int64(r), data)
			}
			sendUS = p.Now().Sub(start).Microseconds() / float64(reps)
		}
		pe.BarrierAll(p)
	})
	return putUS, sendUS
}

// RunAblationRouting compares the paper's rightward routing against
// shortest-arc routing (A4): mean get latency from PE 0 to every peer of
// a 7-host ring. Shortest routing folds the latency curve in half at the
// ring's midpoint, at the price of a doubled (bidirectional) barrier.
func RunAblationRouting(par *model.Params) *Figure {
	f := &Figure{
		ID:     "A4",
		Title:  "Routing policy: get latency by destination (7 hosts, 64KB, DMA)",
		XLabel: "Destination PE",
		Unit:   "us",
	}
	const n = 7
	const size = 64 << 10
	routings := []core.Routing{core.RouteRightward, core.RouteShortest}
	type cellKey struct {
		routing core.Routing
		dst     int
	}
	var keys []cellKey
	for _, routing := range routings {
		for dst := 1; dst < n; dst++ {
			keys = append(keys, cellKey{routing, dst})
		}
	}
	vals := RunPoints(keys, func(k cellKey) float64 {
		return MeasureGetRouted(par, k.routing, n, k.dst, size)
	})
	for ri, routing := range routings {
		series := Series{Label: routing.String(), Points: make([]Point, 0, n-1)}
		for di := 0; di < n-1; di++ {
			series.Points = append(series.Points, Point{di + 1, vals[ri*(n-1)+di]})
		}
		f.Series = append(f.Series, series)
	}
	return f
}

// MeasureGetRouted measures mean get latency (us) from PE 0 to dst on an
// n-host ring under the given routing policy.
func MeasureGetRouted(par *model.Params, routing core.Routing, n, dst, size int) float64 {
	var us float64
	label := fmt.Sprintf("get-routed %s/n=%d/dst=%d/size=%d", routing, n, dst, size)
	runRingWorld(label, par, n, core.Options{Routing: routing}, func(p *sim.Proc, pe *core.PE) {
		sym := pe.MustMalloc(p, size)
		buf := make([]byte, size)
		pe.BarrierAll(p)
		if pe.ID() == 0 {
			start := p.Now()
			for r := 0; r < 5; r++ {
				pe.GetBytes(p, dst, sym, buf)
			}
			us = p.Now().Sub(start).Microseconds() / 5
		}
		pe.BarrierAll(p)
	})
	return us
}

// MeasureFarthest measures put and get latency (us) from PE 0 to the
// farthest PE of an n-host ring at the given size (5-rep averages).
func MeasureFarthest(par *model.Params, n, size int) (putUS, getUS float64) {
	label := fmt.Sprintf("farthest n=%d/size=%d", n, size)
	runRingWorld(label, par, n, core.Options{}, func(p *sim.Proc, pe *core.PE) {
		sym := pe.MustMalloc(p, size)
		buf := make([]byte, size)
		pe.BarrierAll(p)
		target := n - 1 // farthest rightward
		if pe.ID() == 0 {
			start := p.Now()
			for r := 0; r < 5; r++ {
				pe.PutBytes(p, target, sym, buf)
			}
			putUS = p.Now().Sub(start).Microseconds() / 5
		}
		pe.BarrierAll(p)
		if pe.ID() == 0 {
			start := p.Now()
			for r := 0; r < 5; r++ {
				pe.GetBytes(p, target, sym, buf)
			}
			getUS = p.Now().Sub(start).Microseconds() / 5
		}
		pe.BarrierAll(p)
	})
	return putUS, getUS
}

package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/model"
	"repro/internal/sim"
)

// Application kernels (extension figure E3): three invariant-checked mini
// applications — halo-exchange stencil, ring-rotation matmul, bucketed
// integer sort — timed end to end across link-protocol configurations.
// The paper evaluates only microbenchmarks; this measures what its
// prototype would mean for real SPMD codes, and how much the pipelined
// protocol (A6) buys them.

// AppConfig names one runtime configuration for the kernel sweep.
type AppConfig struct {
	Name string
	Opts core.Options
}

// AppConfigs returns the standard sweep: the paper's protocol in both
// transfer modes, plus the pipelined protocol.
func AppConfigs() []AppConfig {
	return []AppConfig{
		{"DMA stop-and-wait", core.Options{}},
		{"memcpy stop-and-wait", core.Options{Mode: driver.ModeCPU}},
		{"DMA pipelined x8", core.Options{Pipeline: 8}},
	}
}

// runApp executes body on an n-host ring and returns the virtual time
// from the post-init barrier to job completion, in microseconds.
func runApp(label string, par *model.Params, n int, opts core.Options, body func(p *sim.Proc, pe *core.PE)) float64 {
	var start, end sim.Time
	runRingWorld(label, par, n, opts, func(p *sim.Proc, pe *core.PE) {
		pe.BarrierAll(p)
		if pe.ID() == 0 {
			start = p.Now()
		}
		body(p, pe)
		pe.BarrierAll(p)
		if pe.ID() == 0 {
			end = p.Now()
		}
	})
	return end.Sub(start).Microseconds()
}

// AppHeat1D runs a halo-exchange stencil: cells points, steps
// iterations, neighbour halos exchanged with one-sided puts each step.
// It self-verifies conservation (the explicit scheme preserves the
// total) and returns the kernel's virtual time in microseconds.
func AppHeat1D(par *model.Params, opts core.Options, hosts, cells, steps int) float64 {
	if cells%hosts != 0 {
		panic("bench: cells must divide among hosts")
	}
	local := cells / hosts
	label := fmt.Sprintf("app heat1d/hosts=%d/pipeline=%d/%s", hosts, opts.Pipeline, opts.Mode)
	return runApp(label, par, hosts, opts, func(p *sim.Proc, pe *core.PE) {
		n := pe.NumPEs()
		field := pe.MustMalloc(p, (local+2)*8)
		u := make([]float64, local+2)
		for i := 0; i < local; i++ {
			if pe.ID()*local+i == cells/2 {
				u[i+1] = 1000
			}
		}
		core.LocalPut(p, pe, field, u)
		pe.BarrierAll(p)
		left := (pe.ID() - 1 + n) % n
		right := (pe.ID() + 1) % n
		for s := 0; s < steps; s++ {
			core.LocalGet(p, pe, field, u)
			core.Put(p, pe, left, field+core.SymAddr((local+1)*8), u[1:2])
			core.Put(p, pe, right, field, u[local:local+1])
			pe.BarrierAll(p)
			core.LocalGet(p, pe, field, u)
			next := make([]float64, local+2)
			copy(next, u)
			for i := 1; i <= local; i++ {
				next[i] = u[i] + 0.25*(u[i-1]-2*u[i]+u[i+1])
			}
			core.LocalPut(p, pe, field, next)
			pe.BarrierAll(p)
		}
		// Verify conservation via a reduction.
		sum := pe.MustMalloc(p, 8)
		total := pe.MustMalloc(p, 8)
		pe.BarrierAll(p)
		core.LocalGet(p, pe, field, u)
		var mine float64
		for i := 1; i <= local; i++ {
			mine += u[i]
		}
		core.LocalPut(p, pe, sum, []float64{mine})
		core.Reduce[float64](p, pe, core.OpSum, total, sum, 1)
		var out [1]float64
		core.LocalGet(p, pe, total, out[:])
		if d := out[0] - 1000; d > 1e-6 || d < -1e-6 {
			panic(fmt.Sprintf("bench: heat1d lost energy: total %v", out[0]))
		}
	})
}

// AppMatmul runs the ring-rotation SUMMA matmul on dim x dim matrices
// and self-verifies a probe row against a serial computation. Returns
// virtual microseconds.
func AppMatmul(par *model.Params, opts core.Options, hosts, dim int) float64 {
	if dim%hosts != 0 {
		panic("bench: dim must divide among hosts")
	}
	mb := dim / hosts
	rng := SeededRNG(matmulSeed)
	A := make([]float64, dim*dim)
	B := make([]float64, dim*dim)
	for i := range A {
		A[i] = rng.Float64() - 0.5
		B[i] = rng.Float64() - 0.5
	}
	// Serial probe: row 0 of the product.
	probe := make([]float64, dim)
	for k := 0; k < dim; k++ {
		a := A[k]
		for j := 0; j < dim; j++ {
			probe[j] += a * B[k*dim+j]
		}
	}
	label := fmt.Sprintf("app matmul/hosts=%d/pipeline=%d/%s", hosts, opts.Pipeline, opts.Mode)
	return runApp(label, par, hosts, opts, func(p *sim.Proc, pe *core.PE) {
		me, n := pe.ID(), pe.NumPEs()
		stripe := mb * dim
		next := pe.MustMalloc(p, stripe*8)
		sig := pe.MustMalloc(p, 8)
		pe.BarrierAll(p)
		aLocal := A[me*mb*dim : (me+1)*mb*dim]
		cLocal := make([]float64, stripe)
		bStripe := make([]float64, stripe)
		copy(bStripe, B[me*mb*dim:(me+1)*mb*dim])
		left := (me - 1 + n) % n
		for step := 0; step < n; step++ {
			owner := (me + step) % n
			for i := 0; i < mb; i++ {
				for k := 0; k < mb; k++ {
					a := aLocal[i*dim+owner*mb+k]
					for j := 0; j < dim; j++ {
						cLocal[i*dim+j] += a * bStripe[k*dim+j]
					}
				}
			}
			if step == n-1 {
				break
			}
			core.Put(p, pe, left, next, bStripe)
			pe.AddInt64(p, left, sig, 1)
			pe.WaitUntilInt64(p, sig, core.CmpGE, int64(step+1))
			core.LocalGet(p, pe, next, bStripe)
			pe.BarrierAll(p)
		}
		if me == 0 {
			for j := 0; j < dim; j++ {
				if d := cLocal[j] - probe[j]; d > 1e-9 || d < -1e-9 {
					panic(fmt.Sprintf("bench: matmul probe diverged at %d: %v vs %v", j, cLocal[j], probe[j]))
				}
			}
		}
	})
}

// AppIntSort runs the key exchange of an NPB-IS-style bucket sort over
// hosts*perPE keys and checks that every PE received only keys of its
// bucket. Returns virtual microseconds. E3 times the exchange and charges
// nothing for the within-bucket sort, so the sort is not run: the
// ownership check reads the keys in any order. examples/intsort sorts
// and checks against a serial reference.
func AppIntSort(par *model.Params, opts core.Options, hosts, perPE int) float64 {
	const keyRange = 1 << 16
	label := fmt.Sprintf("app intsort/hosts=%d/pipeline=%d/%s", hosts, opts.Pipeline, opts.Mode)
	return runApp(label, par, hosts, opts, func(p *sim.Proc, pe *core.PE) {
		n := pe.NumPEs()
		me := pe.ID()
		rng := peRNG(intsortStride, me)
		mine := make([]int32, perPE)
		for i := range mine {
			mine[i] = int32(rng.Intn(keyRange))
		}
		width := keyRange / n
		buckets := make([][]int32, n)
		for _, k := range mine {
			owner := int(k) / width
			if owner >= n {
				owner = n - 1
			}
			buckets[owner] = append(buckets[owner], k)
		}
		countsSym := pe.MustMalloc(p, n*n*4)
		myCounts := make([]int32, n)
		for d := range buckets {
			myCounts[d] = int32(len(buckets[d]))
		}
		core.LocalPut(p, pe, countsSym+core.SymAddr(me*n*4), myCounts)
		pe.BarrierAll(p)
		pe.FCollectBytes(p, countsSym+core.SymAddr(me*n*4), countsSym, n*4)
		allCounts := make([]int32, n*n)
		core.LocalGet(p, pe, countsSym, allCounts)
		maxRecv := 1
		for dst := 0; dst < n; dst++ {
			total := 0
			for src := 0; src < n; src++ {
				total += int(allCounts[src*n+dst])
			}
			if total > maxRecv {
				maxRecv = total
			}
		}
		recvSym := pe.MustMalloc(p, maxRecv*4)
		sig := pe.MustMalloc(p, 8)
		pe.BarrierAll(p)
		for dst := 0; dst < n; dst++ {
			off := 0
			for src := 0; src < me; src++ {
				off += int(allCounts[src*n+dst])
			}
			if dst == me {
				myOff := 0
				for src := 0; src < me; src++ {
					myOff += int(allCounts[src*n+me])
				}
				core.LocalPut(p, pe, recvSym+core.SymAddr(myOff*4), buckets[me])
				continue
			}
			if len(buckets[dst]) > 0 {
				core.Put(p, pe, dst, recvSym+core.SymAddr(off*4), buckets[dst])
			}
			pe.AddInt64(p, dst, sig, 1)
		}
		pe.WaitUntilInt64(p, sig, core.CmpGE, int64(n-1))
		recvTotal := 0
		for src := 0; src < n; src++ {
			recvTotal += int(allCounts[src*n+me])
		}
		got := make([]int32, recvTotal)
		core.LocalGet(p, pe, recvSym, got)
		lo, hi := int32(me*width), int32((me+1)*width)
		if me == n-1 {
			hi = keyRange
		}
		for _, k := range got {
			if k < lo || k >= hi {
				panic(fmt.Sprintf("bench: pe %d holds out-of-bucket key %d", me, k))
			}
		}
	})
}

// RunAppKernels produces the E3 figure: kernel completion times per
// configuration.
func RunAppKernels(par *model.Params) *Figure {
	f := &Figure{
		ID:     "E3",
		Title:  "Application kernels: completion time by link configuration (4 hosts)",
		XLabel: "Kernel",
		Unit:   "us",
		XNames: map[int]string{1: "heat1d", 2: "matmul", 3: "intsort"},
	}
	cfgs := AppConfigs()
	kernels := []func(cfg AppConfig) float64{
		func(cfg AppConfig) float64 { return AppHeat1D(par, cfg.Opts, 4, 2048, 50) },
		func(cfg AppConfig) float64 { return AppMatmul(par, cfg.Opts, 4, 64) },
		func(cfg AppConfig) float64 { return AppIntSort(par, cfg.Opts, 4, 40_000) },
	}
	type cellKey struct{ ci, ki int }
	var keys []cellKey
	for ci := range cfgs {
		for ki := range kernels {
			keys = append(keys, cellKey{ci, ki})
		}
	}
	vals := RunPoints(keys, func(k cellKey) float64 {
		return kernels[k.ki](cfgs[k.ci])
	})
	for ci, cfg := range cfgs {
		series := Series{Label: cfg.Name, Points: make([]Point, 0, len(kernels))}
		for ki := range kernels {
			series.Points = append(series.Points, Point{ki + 1, vals[ci*len(kernels)+ki]})
		}
		f.Series = append(f.Series, series)
	}
	return f
}

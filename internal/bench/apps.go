package bench

import (
	"fmt"
	"math"

	"repro/apps"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/model"
	"repro/internal/sim"
)

// Application kernels (extension figure E3): the three kernels of package
// apps — halo-exchange stencil, ring-rotation matmul, bucketed integer
// sort — timed end to end across link-protocol configurations, each with
// a cheap invariant check.
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

// AppHeat1D times apps.Heat1D: cells points, steps iterations, neighbour
// halos exchanged with one-sided puts each step. It checks conservation
// (the explicit scheme preserves the total) and returns the kernel's
// virtual time in microseconds.
func AppHeat1D(par *model.Params, opts core.Options, hosts, cells, steps int) float64 {
	if cells%hosts != 0 {
		panic("bench: cells must divide among hosts")
	}
	label := fmt.Sprintf("app heat1d/hosts=%d/pipeline=%d/%s", hosts, opts.Pipeline, opts.Mode)
	return runApp(label, par, hosts, opts, func(p *sim.Proc, pe *core.PE) {
		if _, total := apps.Heat1D(p, pe, cells, steps); math.Abs(total-apps.HeatSpike) > 1e-6 {
			panic(fmt.Sprintf("bench: heat1d lost energy: total %v", total))
		}
	})
}

// AppMatmul times apps.Matmul on dim x dim matrices drawn from matmulSeed
// and checks the product's row 0 against a serial computation. Returns
// virtual microseconds.
func AppMatmul(par *model.Params, opts core.Options, hosts, dim int) float64 {
	if dim%hosts != 0 {
		panic("bench: dim must divide among hosts")
	}
	rng := SeededRNG(matmulSeed)
	A := make([]float64, dim*dim)
	B := make([]float64, dim*dim)
	// float64(…) keeps every product here unfused on every CPU
	// (TestNoFusedMultiplyAdd); rand's Float64 inlines to a multiply.
	for i := range A {
		A[i] = float64(rng.Float64()) - 0.5
		B[i] = float64(rng.Float64()) - 0.5
	}
	// Serial probe: row 0 of the product.
	probe := make([]float64, dim)
	for k := 0; k < dim; k++ {
		a := A[k]
		for j := 0; j < dim; j++ {
			probe[j] += float64(a * B[k*dim+j])
		}
	}
	label := fmt.Sprintf("app matmul/hosts=%d/pipeline=%d/%s", hosts, opts.Pipeline, opts.Mode)
	return runApp(label, par, hosts, opts, func(p *sim.Proc, pe *core.PE) {
		c := apps.Matmul(p, pe, A, B, dim)
		if pe.ID() != 0 {
			return
		}
		for j := 0; j < dim; j++ {
			if d := c[j] - probe[j]; d > 1e-9 || d < -1e-9 {
				panic(fmt.Sprintf("bench: matmul probe diverged at %d: %v vs %v", j, c[j], probe[j]))
			}
		}
	})
}

// AppIntSort times apps.IntSort over hosts*perPE keys, PE me's drawn from
// seed me*intsortStride, and checks that every PE received only keys of
// its bucket. Returns virtual microseconds. E3 times the exchange and
// charges nothing for the within-bucket sort, so it is not run: the
// ownership check reads the keys in any order.
func AppIntSort(par *model.Params, opts core.Options, hosts, perPE int) float64 {
	label := fmt.Sprintf("app intsort/hosts=%d/pipeline=%d/%s", hosts, opts.Pipeline, opts.Mode)
	return runApp(label, par, hosts, opts, func(p *sim.Proc, pe *core.PE) {
		me, n := pe.ID(), pe.NumPEs()
		rng := peRNG(intsortStride, me)
		keys := make([]int32, perPE)
		for i := range keys {
			keys[i] = int32(rng.Intn(apps.KeyRange))
		}
		width := apps.KeyRange / n
		lo, hi := int32(me*width), int32((me+1)*width)
		if me == n-1 {
			hi = apps.KeyRange
		}
		for _, k := range apps.IntSort(p, pe, keys) {
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

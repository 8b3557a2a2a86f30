package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/sim"
)

// Fig 10: latency of shmem_barrier_all when each barrier follows Put
// operations of varying size, for the same four {DMA, memcpy} x {1, 2
// hops} configurations as Fig 9. The paper's observation: barrier cost
// is substantial relative to small transfers but sustained (flat) as the
// put size grows.

const fig10Reps = 10

// MeasureBarrierAfterPut returns the mean latency in microseconds of a
// BarrierAll issued immediately after a put of the given size.
func MeasureBarrierAfterPut(par *model.Params, mode driver.Mode, hops, size, reps int) float64 {
	var total sim.Duration
	label := fmt.Sprintf("barrier-after-put %s/hops=%d/size=%d", mode, hops, size)
	buf := mem.Zeros(size) // PE 0's put source, the read-only zero source
	runRingWorld(label, par, 3, core.Options{Mode: mode}, func(p *sim.Proc, pe *core.PE) {
		sym := pe.MustMalloc(p, size)
		pe.BarrierAll(p)
		for r := 0; r < reps; r++ {
			if pe.ID() == 0 {
				pe.PutBytes(p, hops, sym, buf)
			}
			start := p.Now()
			pe.BarrierAll(p)
			if pe.ID() == 0 {
				total += p.Now().Sub(start)
			}
		}
	})
	return total.Microseconds() / float64(reps)
}

// RunFig10 reproduces Fig 10.
func RunFig10(par *model.Params) *Figure {
	f := &Figure{
		ID:     "Fig 10",
		Title:  "Latency of OpenSHMEM Barrier Library",
		XLabel: "Request Size",
		Unit:   "us",
	}
	grid := fig9Grid()
	sizes := Sizes()
	type cellKey struct {
		gi   int
		size int
	}
	keys := make([]cellKey, 0, len(grid)*len(sizes))
	for gi := range grid {
		for _, size := range sizes {
			keys = append(keys, cellKey{gi, size})
		}
	}
	vals := runPointsCost(keys, func(_ int, k cellKey) float64 {
		return float64(k.size) * float64(1+grid[k.gi].hops)
	}, func(k cellKey) float64 {
		cfg := grid[k.gi]
		return MeasureBarrierAfterPut(par, cfg.mode, cfg.hops, k.size, fig10Reps)
	})
	for gi, cfg := range grid {
		series := Series{Label: cfg.label, Points: make([]Point, 0, len(sizes))}
		for si, size := range sizes {
			series.Points = append(series.Points, Point{size, vals[gi*len(sizes)+si]})
		}
		f.Series = append(f.Series, series)
	}
	return f
}

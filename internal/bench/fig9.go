package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/sim"
)

// Fig 9: latency and throughput of the OpenSHMEM Put and Get operations
// over the three-host ring, for the four configurations the paper
// sweeps: {DMA, memcpy} x {1 hop, 2 hops}, request sizes 1 KiB - 512 KiB.

// fig9Reps averages each point over this many operations.
const fig9Reps = 10

// Op selects the measured operation.
type Op int

const (
	// OpPut measures shmem_put.
	OpPut Op = iota
	// OpGet measures shmem_get.
	OpGet
)

func (o Op) String() string {
	if o == OpGet {
		return "get"
	}
	return "put"
}

// MeasureShmemOp runs one (op, mode, hops, size) cell on a fresh 3-host
// ring and returns the mean per-operation latency in microseconds.
func MeasureShmemOp(par *model.Params, op Op, mode driver.Mode, hops, size, reps int) float64 {
	var mean float64
	label := fmt.Sprintf("shmem-op %s/%s/hops=%d/size=%d", op, mode, hops, size)
	// PE 0's put source is the read-only zero source; its get
	// destination a borrowed buffer.
	buf := mem.Zeros(size)
	if op == OpGet {
		buf = borrowDst(size)
		defer returnDst(buf)
	}
	runRingWorld(label, par, 3, core.Options{Mode: mode}, func(p *sim.Proc, pe *core.PE) {
		sym := pe.MustMalloc(p, size)
		pe.BarrierAll(p)
		if pe.ID() == 0 {
			target := hops // PE k is k rightward hops from PE 0
			start := p.Now()
			for r := 0; r < reps; r++ {
				if op == OpPut {
					pe.PutBytes(p, target, sym, buf)
				} else {
					pe.GetBytes(p, target, sym, buf)
				}
			}
			// A put is locally blocking; the paper measures exactly that
			// latency, so no quiesce inside the timed region.
			mean = p.Now().Sub(start).Microseconds() / float64(reps)
		}
		pe.BarrierAll(p)
	})
	return mean
}

// fig9Configs is the paper's series grid in plot order.
type fig9Config struct {
	label string
	mode  driver.Mode
	hops  int
}

func fig9Grid() []fig9Config {
	return []fig9Config{
		{"DMA 1 hop", driver.ModeDMA, 1},
		{"DMA 2 hops", driver.ModeDMA, 2},
		{"memcpy 1 hop", driver.ModeCPU, 1},
		{"memcpy 2 hops", driver.ModeCPU, 2},
	}
}

// RunFig9 reproduces Fig 9(a)-(d): Put latency, Get latency, Put
// throughput, Get throughput.
func RunFig9(par *model.Params) []*Figure {
	sizes := Sizes()
	grid := fig9Grid()

	mkFig := func(id, title, unit string) *Figure {
		f := &Figure{ID: id, Title: title, XLabel: "Request Size", Unit: unit}
		for _, cfg := range grid {
			f.Series = append(f.Series, Series{Label: cfg.label})
		}
		return f
	}
	putLat := mkFig("Fig 9(a)", "Latency of OpenSHMEM Put with one-sided communication", "us")
	getLat := mkFig("Fig 9(b)", "Latency of OpenSHMEM Get with one-sided communication", "us")
	putTput := mkFig("Fig 9(c)", "Throughput of OpenSHMEM Put with one-sided communication", "MB/s")
	getTput := mkFig("Fig 9(d)", "Throughput of OpenSHMEM Get with one-sided communication", "MB/s")

	// Fan the (size, config) grid across workers; each cell builds its
	// own worlds, and results are slotted by index so the emitted series
	// are identical at any parallelism.
	type cellKey struct {
		size int
		gi   int
	}
	keys := make([]cellKey, 0, len(sizes)*len(grid))
	for _, size := range sizes {
		for gi := range grid {
			keys = append(keys, cellKey{size, gi})
		}
	}
	type cellVal struct{ putLat, getLat float64 }
	// Large requests simulate many more chunk cycles than small ones;
	// claiming them first keeps the parallel tail short.
	cells := runPointsCost(keys, func(_ int, k cellKey) float64 {
		return float64(k.size) * float64(1+grid[k.gi].hops)
	}, func(k cellKey) cellVal {
		cfg := grid[k.gi]
		return cellVal{
			putLat: MeasureShmemOp(par, OpPut, cfg.mode, cfg.hops, k.size, fig9Reps),
			getLat: MeasureShmemOp(par, OpGet, cfg.mode, cfg.hops, k.size, fig9Reps),
		}
	})
	for i, k := range keys {
		pl, gl := cells[i].putLat, cells[i].getLat
		putLat.Series[k.gi].Points = append(putLat.Series[k.gi].Points, Point{k.size, pl})
		getLat.Series[k.gi].Points = append(getLat.Series[k.gi].Points, Point{k.size, gl})
		putTput.Series[k.gi].Points = append(putTput.Series[k.gi].Points, Point{k.size, MBps(int64(k.size), int64(pl*1e3))})
		getTput.Series[k.gi].Points = append(getTput.Series[k.gi].Points, Point{k.size, MBps(int64(k.size), int64(gl*1e3))})
	}
	return []*Figure{putLat, getLat, putTput, getTput}
}

// CheckFig9Shapes validates the qualitative relationships the paper
// reports, returning a list of violations (empty means the shape holds):
//
//  1. Put latency is nearly hop-insensitive; Get latency is strongly
//     hop-sensitive.
//  2. Get is much slower than Put at every size.
//  3. DMA beats memcpy for large puts.
func CheckFig9Shapes(figs []*Figure) []string {
	var bad []string
	putLat, getLat := figs[0], figs[1]
	at := func(f *Figure, label string, size int) float64 {
		v, err := f.SeriesByLabel(label).At(size)
		if err != nil {
			panic(err)
		}
		return v
	}
	const big = 512 << 10
	if r := at(putLat, "DMA 2 hops", big) / at(putLat, "DMA 1 hop", big); r > 1.15 {
		bad = append(bad, fmt.Sprintf("put latency hop ratio %.2f > 1.15", r))
	}
	if r := at(getLat, "DMA 2 hops", big) / at(getLat, "DMA 1 hop", big); r < 1.25 {
		bad = append(bad, fmt.Sprintf("get latency hop ratio %.2f < 1.25", r))
	}
	for _, size := range []int{1 << 10, 64 << 10, big} {
		if r := at(getLat, "DMA 1 hop", size) / at(putLat, "DMA 1 hop", size); r < 2 {
			bad = append(bad, fmt.Sprintf("get/put ratio %.2f < 2 at %s", r, SizeLabel(size)))
		}
	}
	if at(putLat, "DMA 1 hop", big) >= at(putLat, "memcpy 1 hop", big) {
		bad = append(bad, "DMA put not faster than memcpy put at 512KB")
	}
	return bad
}

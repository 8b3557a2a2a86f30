package bench

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/ntb"
	"repro/internal/sim"
)

// Fig 8: raw data-transfer rate of the PCIe NTB fabric, independent
// two-host link versus all links of the three-host ring transferring
// simultaneously, for block sizes 1 KiB - 512 KiB moved by the NTB DMA
// engine. The paper plots each host pair (a-c) and the network total (d).

// fig8Reps is how many blocks each sender moves per measurement; enough
// to amortise start-up transients at every size.
const fig8Reps = 50

// rawDMAStream moves reps blocks of len(src) bytes out of port's DMA
// engine, one descriptor at a time, and returns the achieved throughput
// in MB/s. The engine only reads src, so concurrent senders may share it.
func rawDMAStream(p *sim.Proc, port *ntb.Port, src []byte, reps int) float64 {
	size := len(src)
	start := p.Now()
	for r := 0; r < reps; r++ {
		port.DMA().Submit(p, ntb.Desc{Region: ntb.RegionData, Off: 0, Src: src, Bytes: size}).Wait(p)
	}
	return MBps(int64(size)*int64(reps), int64(p.Now().Sub(start)))
}

// Fig8Independent measures one isolated NTB link (two hosts, single
// cable) at the given block size. linkIdx selects which of the ring's
// chipset-pairings the isolated link uses, so each Fig 8 sub-plot
// compares a pair against itself as the paper does.
func Fig8Independent(par *model.Params, linkIdx, size int) float64 {
	pp := par.Clone()
	pp.DMAEngineBW = par.LinkEngineBW(linkIdx)
	pp.ChipsetSpread = nil
	worldCount.Add(1)
	s := sim.New()
	c, err := fabric.NewPair(s, pp)
	if err != nil {
		panic(fmt.Sprintf("bench: fig8-independent link=%d: %v", linkIdx, err))
	}
	var tput float64
	src := mem.Zeros(size) // the read-only zero source
	s.Go("sender", func(p *sim.Proc) {
		tput = rawDMAStream(p, c.Hosts[0].Right, src, fig8Reps)
	})
	if err := s.Run(); err != nil {
		panic(fmt.Sprintf("bench: fig8-independent link=%d size=%d: %v", linkIdx, size, err))
	}
	worldEvents.Add(s.EventsExecuted())
	s.Shutdown()
	return tput
}

// Fig8Ring measures all n links of an n-host ring transferring
// simultaneously (host i -> host i+1) at the given block size. It
// returns the per-link throughputs in link order.
func Fig8Ring(par *model.Params, n, size int) []float64 {
	worldCount.Add(1)
	s := sim.New()
	c, err := fabric.NewRing(s, par, n)
	if err != nil {
		panic(fmt.Sprintf("bench: fig8-ring n=%d: %v", n, err))
	}
	tputs := make([]float64, n)
	src := mem.Zeros(size) // the read-only zero source, shared by every sender
	for i := 0; i < n; i++ {
		i := i
		s.Go(fmt.Sprintf("sender%d", i), func(p *sim.Proc) {
			tputs[i] = rawDMAStream(p, c.Hosts[i].Right, src, fig8Reps)
		})
	}
	if err := s.Run(); err != nil {
		panic(fmt.Sprintf("bench: fig8-ring n=%d size=%d: %v", n, size, err))
	}
	worldEvents.Add(s.EventsExecuted())
	s.Shutdown()
	return tputs
}

// RunFig8 reproduces Fig 8(a)-(c) (per-pair transfer rate, independent
// vs ring) and Fig 8(d) (total network transfer rate).
func RunFig8(par *model.Params) []*Figure {
	sizes := Sizes()
	indepPerLink := make([][]Point, 3)
	ringPerLink := make([][]Point, 3)
	totalIndep := make([]Point, 0, len(sizes))
	totalRing := make([]Point, 0, len(sizes))

	// One parallel cell per block size: the ring measurement plus the
	// three isolated-link baselines.
	type cell struct {
		ring  []float64
		indep [3]float64
	}
	cells := runPointsCost(sizes, func(_ int, size int) float64 {
		return float64(size)
	}, func(size int) cell {
		var c cell
		c.ring = Fig8Ring(par, 3, size)
		for l := 0; l < 3; l++ {
			c.indep[l] = Fig8Independent(par, l, size)
		}
		return c
	})
	for si, size := range sizes {
		c := cells[si]
		var sumI, sumR float64
		for l := 0; l < 3; l++ {
			indepPerLink[l] = append(indepPerLink[l], Point{size, c.indep[l]})
			ringPerLink[l] = append(ringPerLink[l], Point{size, c.ring[l]})
			sumI += c.indep[l]
			sumR += c.ring[l]
		}
		totalIndep = append(totalIndep, Point{size, sumI})
		totalRing = append(totalRing, Point{size, sumR})
	}

	var figs []*Figure
	pairNames := []string{"Host0 and Host1", "Host1 and Host2", "Host2 and Host0"}
	for l, name := range pairNames {
		figs = append(figs, &Figure{
			ID:     fmt.Sprintf("Fig 8(%c)", 'a'+l),
			Title:  "Data Transfer Rate between " + name + " (Independent vs. Ring)",
			XLabel: "Request Size",
			Unit:   "MB/s",
			Series: []Series{
				{Label: "Independent", Points: indepPerLink[l]},
				{Label: "Ring", Points: ringPerLink[l]},
			},
		})
	}
	figs = append(figs, &Figure{
		ID:     "Fig 8(d)",
		Title:  "Total Data Transfer Rate of the Network",
		XLabel: "Request Size",
		Unit:   "MB/s",
		Series: []Series{
			{Label: "Independent x3", Points: totalIndep},
			{Label: "Ring total", Points: totalRing},
		},
	})
	return figs
}

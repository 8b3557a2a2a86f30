package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"

	"repro/internal/bench"
	"repro/internal/fabric"
	"repro/internal/model"
)

// fig8 reproduces Fig 8 of the paper: raw data-transfer rate through the
// PCIe NTB fabric, comparing an independent two-host link against all
// links of the ring transferring simultaneously, over block sizes
// 1KB-512KB.
func fig8(args []string, stdout, stderr io.Writer) int {
	c := newCLI("fig8", "Fig 8: raw NTB transfer rate, one independent link against every link of the ring at once, 1KB-512KB.", stdout, stderr, &bench.FlagSpec{
		Fabric:      "ntb-ring",
		FabricUsage: "fabric backend: ntb-ring, ntb-pair, pcie-switch, or cxl (non-ring backends run the cross-fabric workload)",
	})
	hosts := c.Int("hosts", 3, "ring size for the simultaneous-transfer measurement")
	gen := c.Int("gen", 3, "PCIe generation (1-3)")
	lanes := c.Int("lanes", 8, "PCIe lane count")
	c.csvFlag()
	if code, ok := c.parse(args); !ok {
		return code
	}
	c.par.Gen, c.par.Lanes = *gen, *lanes
	if err := c.par.Validate(); err != nil {
		return c.fail(2, err)
	}
	if kind := c.shared.Kind(); kind != fabric.KindNTBRing {
		// Fig 8's independent/ring split is a ring-topology concept; on
		// the other backends report the cross-fabric contention workload
		// for the one requested kind instead. That workload fixes its own
		// cluster size, so an explicit -hosts has nothing to set.
		hostsSet := false
		c.Visit(func(f *flag.Flag) { hostsSet = hostsSet || f.Name == "hosts" })
		if hostsSet {
			return c.fail(2, fmt.Errorf("-hosts=%d: only the ntb-ring measurement takes a ring size; the %s run is the cross-fabric workload at its fixed cluster size", *hosts, kind))
		}
		c.emit(bench.RunCrossFabric(c.par, []fabric.Kind{kind}))
		return 0
	}
	if err := bench.CheckHostCount("hosts", *hosts, fabric.KindNTBRing); err != nil {
		return c.fail(2, err)
	}
	if *hosts == 3 {
		for _, f := range bench.RunFig8(c.par) {
			c.emit(f)
		}
		return 0
	}
	// Non-paper ring sizes: print per-link and total for the requested n.
	c.emit(customRing(c.par, *hosts))
	return 0
}

func customRing(par *model.Params, n int) *bench.Figure {
	f := &bench.Figure{
		ID:     "Fig 8 (custom)",
		Title:  fmt.Sprintf("Per-link and total transfer rate, %d-host ring", n),
		XLabel: "Request Size",
		Unit:   "MB/s",
	}
	indep := bench.Series{Label: "Independent"}
	total := bench.Series{Label: "Ring total"}
	perLink := make([]bench.Series, n)
	for i := range perLink {
		perLink[i].Label = fmt.Sprintf("Link %d", i)
	}
	type cell struct {
		indep float64
		rates []float64
	}
	sizes := bench.Sizes()
	cells := bench.RunPoints(sizes, func(size int) cell {
		return cell{
			indep: bench.Fig8Independent(par, 0, size),
			rates: bench.Fig8Ring(par, n, size),
		}
	})
	for si, size := range sizes {
		indep.Points = append(indep.Points, bench.Point{Size: size, Value: cells[si].indep})
		var sum float64
		for i, r := range cells[si].rates {
			perLink[i].Points = append(perLink[i].Points, bench.Point{Size: size, Value: r})
			sum += r
		}
		total.Points = append(total.Points, bench.Point{Size: size, Value: sum})
	}
	f.Series = append(f.Series, indep)
	f.Series = append(f.Series, perLink...)
	f.Series = append(f.Series, total)
	return f
}

// fig9 reproduces Fig 9 of the paper: latency and throughput of the
// OpenSHMEM Put and Get operations over the switchless ring, for
// {DMA, memcpy} x {1 hop, 2 hops} and request sizes 1KB-512KB.
func fig9(args []string, stdout, stderr io.Writer) int {
	c := newCLI("fig9", "Fig 9: OpenSHMEM Put/Get latency and throughput, {DMA, memcpy} x {1 hop, 2 hops}, 1KB-512KB; a ring run machine-checks the paper's shapes.", stdout, stderr, &bench.FlagSpec{
		Fabric:      "ntb-ring",
		FabricUsage: "fabric backend to measure over: ntb-ring, pcie-switch, or cxl",
		PairNeeds:   "Fig 9 sweeps a 3-host world",
		Select:      true,
	})
	op := c.String("op", "both", "operation to measure: put, get or both")
	metric := c.String("metric", "both", "metric to report: latency, throughput or both")
	c.profileFlag()
	c.csvFlag()
	if code, ok := c.parse(args); !ok {
		return code
	}
	if err := cmp.Or(oneOf("op", *op, "put", "get", "both"), oneOf("metric", *metric, "latency", "throughput", "both")); err != nil {
		return c.fail(2, err)
	}
	figs := bench.RunFig9(c.par) // a: put lat, b: get lat, c: put tput, d: get tput
	for _, f := range figs {
		title := strings.ToLower(f.Title)
		if (*op == "both" || strings.Contains(title, *op+" ")) && (*metric == "both" || strings.Contains(title, *metric)) {
			c.emit(f)
		}
	}
	if c.shared.Kind() != fabric.KindNTBRing {
		// The shape checks encode ring facts (hop sensitivity, relay
		// costs); on single-hop fabrics they are meaningless.
		return 0
	}
	if bad := bench.CheckFig9Shapes(figs); len(bad) != 0 {
		return c.fail(1, fmt.Errorf("paper-shape checks failed:\n  - %s", strings.Join(bad, "\n  - ")))
	}
	return 0
}

// fig10 reproduces Fig 10 of the paper (latency of shmem_barrier_all
// after Puts of varying size) and, with -ablation, the barrier-algorithm
// comparison of DESIGN.md (A1).
func fig10(args []string, stdout, stderr io.Writer) int {
	c := newCLI("fig10", "Fig 10: shmem_barrier_all latency after Puts of varying size; -ablation compares barrier algorithms (A1).", stdout, stderr, &bench.FlagSpec{
		Fabric:      "ntb-ring",
		FabricUsage: "fabric backend to measure over: ntb-ring, pcie-switch, or cxl",
		PairNeeds:   "Fig 10 runs a 3-host world",
		Select:      true,
	})
	ablation := c.Bool("ablation", false, "run the barrier-algorithm ablation instead of Fig 10")
	c.csvFlag()
	if code, ok := c.parse(args); !ok {
		return code
	}
	switch {
	case !*ablation:
		c.emit(bench.RunFig10(c.par))
	case c.shared.Kind() != fabric.KindNTBRing:
		return c.fail(2, errors.New("-ablation compares the ring's token barrier against dissemination and requires -fabric=ntb-ring"))
	default:
		c.emit(bench.RunAblationBarrierAlgo(c.par))
	}
	return 0
}

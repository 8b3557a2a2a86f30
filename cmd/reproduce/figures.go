package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/bench"
	"repro/internal/model"
)

// figures is reproduce with no subcommand: every figure group in the
// paper's order, then the paper-shape checks.
func figures(args []string, stdout, stderr io.Writer) (code int) {
	c := newCLI("", "Regenerate every figure of the paper's evaluation plus the ablation studies; fig8, fig9, fig10, apps, scale, trace and params are subcommands.", stdout, stderr, &bench.FlagSpec{
		Fabric:      "ntb-ring,pcie-switch,cxl",
		FabricUsage: "comma-separated fabric backends for the cross-fabric figure (E6): ntb-ring, ntb-pair, pcie-switch, cxl",
		FabricList:  true,
	})
	skipAblations := c.Bool("skip-ablations", false, "only the paper's figures")
	outdir := c.String("outdir", "", "also write one CSV file per figure into this directory")
	paramsFile := c.String("params", "", "JSON platform profile overlaying the default (see model.SaveParams)")
	cpuProfile := c.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := c.String("memprofile", "", "write an allocation profile (after the run) to this file")
	c.csvFlag()
	if code, ok := c.parse(args); !ok {
		return code
	}
	if *paramsFile != "" {
		par, err := model.LoadParams(*paramsFile)
		if err != nil {
			return c.fail(1, err)
		}
		c.par = par
	}
	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			return c.fail(1, err)
		}
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return c.fail(1, err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return c.fail(1, err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			if err := writeAllocProfile(*memProfile); err != nil {
				code = c.fail(1, err)
			}
		}()
	}

	start, mp := time.Now(), c.par
	fmt.Fprintf(stderr, "parallel runner: %d workers (independent worlds only; virtual time is unaffected)\n", bench.Parallelism())
	fmt.Fprintf(stdout, "platform profile: PCIe Gen%d x%d, wire %.2f GB/s, DMA engine %.2f GB/s\n\n",
		mp.Gen, mp.Lanes, mp.EffectiveWireBW()/1e9, mp.DMAEngineBW/1e9)

	one := func(f func(*model.Params) *bench.Figure) func(*model.Params) []*bench.Figure {
		return func(mp *model.Params) []*bench.Figure { return []*bench.Figure{f(mp)} }
	}
	var fig9 []*bench.Figure
	groups := []struct {
		name string
		run  func(*model.Params) []*bench.Figure
	}{
		{"Fig 8", bench.RunFig8},
		{"Fig 9", func(mp *model.Params) []*bench.Figure { fig9 = bench.RunFig9(mp); return fig9 }},
		{"Fig 10", one(bench.RunFig10)},
		// The cross-fabric comparison runs even under -skip-ablations: it is
		// the one figure exercising every Link backend, so a smoke run keeps
		// the switch and CXL fabrics covered.
		{"E6", one(func(mp *model.Params) *bench.Figure { return bench.RunCrossFabric(mp, c.shared.Kinds) })},
		{"A1", one(bench.RunAblationBarrierAlgo)},
		{"A2", one(bench.RunAblationGetChunk)},
		{"A3", one(bench.RunAblationRingSize)},
		{"A4", one(bench.RunAblationRouting)},
		{"A5", one(bench.RunAblationBroadcast)},
		{"A6", one(bench.RunAblationPipeline)},
		{"A7", one(bench.RunAblationWakeCost)},
		{"E1", one(func(*model.Params) *bench.Figure { return bench.RunGenerationComparison() })},
		{"E2", one(bench.RunTwoSidedComparison)},
		{"E3", one(bench.RunAppKernels)},
		{"E5", one(bench.RunCollectiveLatency)},
	}
	if *skipAblations {
		groups = groups[:4]
	}
	for _, g := range groups {
		t0 := time.Now()
		figs := g.run(mp)
		wall := time.Since(t0)
		for _, f := range figs {
			if c.csv {
				fmt.Fprintf(stdout, "# %s — %s\n", f.ID, f.Title)
			}
			c.emit(f)
			if c.csv {
				fmt.Fprintln(stdout)
			}
			if *outdir != "" {
				path := filepath.Join(*outdir, bench.CSVFileName(f.ID))
				if err := os.WriteFile(path, []byte(f.CSV()), 0o644); err != nil {
					return c.fail(1, err)
				}
			}
		}
		// Per-group wall clock, so parallel-runner speedups stay visible.
		fmt.Fprintf(stderr, "[%s: %.2fs wall]\n", g.name, wall.Seconds())
	}
	if !*skipAblations {
		fmt.Fprintln(stdout, bench.RunBreakdown(mp))
	}

	if bad := bench.CheckFig9Shapes(fig9); len(bad) != 0 {
		fmt.Fprintln(stdout, "PAPER-SHAPE CHECKS FAILED:")
		for _, b := range bad {
			fmt.Fprintln(stdout, "  -", b)
		}
	} else {
		fmt.Fprintln(stdout, "paper-shape checks: all passed")
	}
	elapsed := time.Since(start).Seconds()
	worlds := bench.WorldsSimulated()
	hits, misses := bench.WorldPoolStats()
	forks, prefixBuilds, eventsSaved := bench.ForkStats()
	fmt.Fprintf(stderr, "simulated %d worlds in %.1f s (%.1f worlds/s, par=%d, pool %d hits / %d misses)\n",
		worlds, elapsed, float64(worlds)/elapsed, bench.Parallelism(), hits, misses)
	fmt.Fprintf(stderr, "snapshot fork: %d forks from %d warm-up prefixes (%d virtual events skipped, %d CoW pages copied)\n",
		forks, prefixBuilds, eventsSaved, bench.CowPagesCopied())
	fmt.Fprintln(stdout, "(all reported numbers are virtual-time measurements; wall times above are host-side cost)")
	return 0
}

// writeAllocProfile writes the allocation profile of the run so far.
func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // settle the heap so the profile shows live retention
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Command appbench runs the self-verifying application kernels (E3) —
// halo-exchange stencil, ring-rotation matmul, NPB-IS-style bucket sort
// — across link configurations and platform profiles, reporting
// end-to-end virtual completion times.
//
// Usage:
//
//	appbench [-hosts N] [-profile gen3x8] [-fabric KIND] [-kernel heat1d|matmul|intsort|all] [-j N]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/fabric"
	"repro/internal/model"
)

func main() {
	hosts := flag.Int("hosts", 4, "ring size")
	profile := flag.String("profile", "gen3x8", "platform profile (see model.Names)")
	kernel := flag.String("kernel", "all", "kernel: heat1d, matmul, intsort or all")
	cells := flag.Int("cells", 2048, "heat1d: total cells")
	steps := flag.Int("steps", 50, "heat1d: time steps")
	dim := flag.Int("dim", 64, "matmul: matrix dimension")
	keys := flag.Int("keys", 40000, "intsort: keys per PE")
	common := bench.RegisterFlags(flag.CommandLine, bench.FlagSpec{
		Cmd:         "appbench",
		Fabric:      "ntb-ring",
		FabricUsage: "fabric backend to run the kernels over: ntb-ring, ntb-pair, pcie-switch, or cxl",
		Select:      true,
	})
	flag.Parse()
	common.Apply()
	kind := common.Kind()
	if max := fabric.MaxHostsFor(kind); *hosts < 2 || *hosts > max {
		fmt.Fprintf(os.Stderr, "appbench: -hosts=%d out of range [2, %d] for the %s fabric\n", *hosts, max, kind)
		os.Exit(2)
	}
	if kind == fabric.KindNTBPair && *hosts != 2 {
		fmt.Fprintf(os.Stderr, "appbench: -hosts=%d: the ntb-pair fabric joins exactly 2 hosts\n", *hosts)
		os.Exit(2)
	}

	par, err := model.Profile(*profile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "appbench:", err)
		os.Exit(1)
	}
	// Keep kernel parameters divisible by the host count.
	c, d := *cells, *dim
	for c%*hosts != 0 {
		c++
	}
	for d%*hosts != 0 {
		d++
	}

	type kern struct {
		name string
		run  func(cfg bench.AppConfig) float64
	}
	kernels := []kern{
		{"heat1d", func(cfg bench.AppConfig) float64 {
			return bench.AppHeat1D(par, cfg.Opts, *hosts, c, *steps)
		}},
		{"matmul", func(cfg bench.AppConfig) float64 {
			return bench.AppMatmul(par, cfg.Opts, *hosts, d)
		}},
		{"intsort", func(cfg bench.AppConfig) float64 {
			return bench.AppIntSort(par, cfg.Opts, *hosts, *keys)
		}},
	}

	selected := kernels[:0]
	for _, k := range kernels {
		if *kernel == "all" || *kernel == k.name {
			selected = append(selected, k)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "appbench: unknown kernel %q\n", *kernel)
		os.Exit(1)
	}

	// Fan the (kernel, config) matrix across workers; each cell runs its
	// own self-verifying world, results print in fixed order.
	cfgs := bench.AppConfigs()
	if kind != fabric.KindNTBRing {
		// The pipelined header-in-window protocol is ring-only; keep the
		// configurations every backend supports.
		kept := cfgs[:0]
		for _, cfg := range cfgs {
			if cfg.Opts.Pipeline < 2 {
				kept = append(kept, cfg)
			}
		}
		cfgs = kept
	}
	type cellKey struct{ ki, ci int }
	var cellKeys []cellKey
	for ki := range selected {
		for ci := range cfgs {
			cellKeys = append(cellKeys, cellKey{ki, ci})
		}
	}
	vals := bench.RunPoints(context.Background(), bench.Parallelism(), cellKeys, func(k cellKey) float64 {
		return selected[k.ki].run(cfgs[k.ci])
	})

	fmt.Printf("profile %s, %d hosts, %s fabric (every kernel self-verifies)\n\n", *profile, *hosts, kind)
	fmt.Printf("%-10s", "kernel")
	for _, cfg := range cfgs {
		fmt.Printf(" %22s", cfg.Name)
	}
	fmt.Println(" (virtual us)")
	for ki, k := range selected {
		fmt.Printf("%-10s", k.name)
		for ci := range cfgs {
			fmt.Printf(" %22.1f", vals[ki*len(cfgs)+ci])
		}
		fmt.Println()
	}
}

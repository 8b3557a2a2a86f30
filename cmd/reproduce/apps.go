package main

import (
	"cmp"
	"fmt"
	"io"

	"repro/internal/bench"
	"repro/internal/fabric"
)

// apps runs the self-verifying application kernels (E3) — halo-exchange
// stencil, ring-rotation matmul, NPB-IS-style bucket sort — across link
// configurations and platform profiles, reporting end-to-end virtual
// completion times.
func apps(args []string, stdout, stderr io.Writer) int {
	c := newCLI("apps", "E3: the self-verifying application kernels across link configurations, end-to-end virtual completion times.", stdout, stderr, &bench.FlagSpec{
		Fabric:      "ntb-ring",
		FabricUsage: "fabric backend to run the kernels over: ntb-ring, ntb-pair, pcie-switch, or cxl",
		Select:      true,
	})
	hosts := c.Int("hosts", 4, "ring size")
	kernel := c.String("kernel", "all", "kernel: heat1d, matmul, intsort or all")
	cells := c.Int("cells", 2048, "heat1d: total cells")
	steps := c.Int("steps", 50, "heat1d: time steps")
	dim := c.Int("dim", 64, "matmul: matrix dimension")
	keys := c.Int("keys", 40000, "intsort: keys per PE")
	c.profileFlag()
	if code, ok := c.parse(args); !ok {
		return code
	}
	kind := c.shared.Kind()
	if err := cmp.Or(
		bench.CheckHostCount("hosts", *hosts, kind),
		oneOf("kernel", *kernel, "heat1d", "matmul", "intsort", "all"),
		c.positive("cells", "steps", "dim", "keys"),
	); err != nil {
		return c.fail(2, err)
	}
	// Round the kernel sizes up to a multiple of the host count.
	cl := (*cells + *hosts - 1) / *hosts * *hosts
	d := (*dim + *hosts - 1) / *hosts * *hosts

	type kern struct {
		name string
		run  func(cfg bench.AppConfig) float64
	}
	kernels := []kern{
		{"heat1d", func(cfg bench.AppConfig) float64 {
			return bench.AppHeat1D(c.par, cfg.Opts, *hosts, cl, *steps)
		}},
		{"matmul", func(cfg bench.AppConfig) float64 {
			return bench.AppMatmul(c.par, cfg.Opts, *hosts, d)
		}},
		{"intsort", func(cfg bench.AppConfig) float64 {
			return bench.AppIntSort(c.par, cfg.Opts, *hosts, *keys)
		}},
	}
	selected := kernels[:0]
	for _, k := range kernels {
		if *kernel == "all" || *kernel == k.name {
			selected = append(selected, k)
		}
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
	vals := bench.RunPoints(cellKeys, func(k cellKey) float64 {
		return selected[k.ki].run(cfgs[k.ci])
	})

	fmt.Fprintf(stdout, "profile %s, %d hosts, %s fabric (every kernel self-verifies)\n\n", *c.profile, *hosts, kind)
	fmt.Fprintf(stdout, "%-10s", "kernel")
	for _, cfg := range cfgs {
		fmt.Fprintf(stdout, " %22s", cfg.Name)
	}
	fmt.Fprintln(stdout, " (virtual us)")
	for ki, k := range selected {
		fmt.Fprintf(stdout, "%-10s", k.name)
		for ci := range cfgs {
			fmt.Fprintf(stdout, " %22.1f", vals[ki*len(cfgs)+ci])
		}
		fmt.Fprintln(stdout)
	}
	return 0
}

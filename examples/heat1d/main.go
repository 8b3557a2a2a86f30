// heat1d: a one-dimensional heat-diffusion stencil with halo exchange —
// the canonical PGAS workload the paper's introduction motivates.
//
// The rod is split into equal blocks, one per PE. Each iteration every PE
// exchanges boundary cells with its ring neighbours by putting them
// directly into the neighbours' halo slots (one-sided communication),
// barriers, and updates its block (apps.Heat1D). On the host the result
// is checked against a serial computation of the same system, and the
// reduced total against the initial heat.
//
// Run with: go run ./examples/heat1d [-hosts N] [-cells C] [-steps S]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"

	ntbshmem "repro"
	"repro/apps"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("heat1d", flag.ExitOnError)
	hosts := fs.Int("hosts", 4, "number of hosts/PEs in the ring")
	cells := fs.Int("cells", 4096, "total cells in the rod (divisible by hosts)")
	steps := fs.Int("steps", 200, "time steps")
	fs.Parse(args)
	if *hosts < 1 || *cells%*hosts != 0 {
		return fmt.Errorf("cells (%d) must divide evenly among hosts (%d)", *cells, *hosts)
	}
	local := *cells / *hosts

	final := make([][]float64, *hosts)
	var total float64
	err := ntbshmem.Run(ntbshmem.Config{Hosts: *hosts}, func(p *ntbshmem.Proc, pe *ntbshmem.PE) {
		block, sum := apps.Heat1D(p, pe, *cells, *steps)
		final[pe.ID()] = block
		if pe.ID() == 0 {
			total = sum
			fmt.Fprintf(stdout, "[t=%v] %d PEs x %d cells, %d steps complete\n",
				p.Now(), pe.NumPEs(), local, *steps)
		}
		pe.Finalize(p)
	})
	if err != nil {
		return err
	}

	// Serial reference.
	ref := make([]float64, *cells)
	ref[*cells/2] = apps.HeatSpike
	tmp := make([]float64, *cells)
	for s := 0; s < *steps; s++ {
		for i := range ref {
			// Periodic, matching the ring halos.
			l, r := ref[(i-1+*cells)%*cells], ref[(i+1)%*cells]
			tmp[i] = ref[i] + apps.Alpha*(l-2*ref[i]+r)
		}
		ref, tmp = tmp, ref
	}

	var maxErr float64
	for peID, block := range final {
		for i, v := range block {
			maxErr = max(maxErr, math.Abs(v-ref[peID*local+i]))
		}
	}
	fmt.Fprintf(stdout, "energy conserved: total=%.3f (initial %d)\n", total, apps.HeatSpike)
	fmt.Fprintf(stdout, "max deviation from serial reference: %.3e\n", maxErr)
	if math.Abs(total-apps.HeatSpike) > 1e-6 {
		return fmt.Errorf("the rod's total heat %v is not the initial %d", total, apps.HeatSpike)
	}
	if maxErr > 1e-9 {
		return fmt.Errorf("distributed stencil diverged from the serial reference by %.3e", maxErr)
	}
	fmt.Fprintln(stdout, "distributed result matches serial reference")
	return nil
}

// ringreduce: distributed dot product and vector norms with OpenSHMEM
// reductions over the NTB ring.
//
// Each PE owns a block of two large vectors, computes its partial dot
// product and partial min/max, then combines them with Reduce — the
// shmem_TYPE_OP_to_all family. On the host every PE's results are
// checked against a serially computed reference.
//
// Run with: go run ./examples/ringreduce [-hosts N] [-elems E]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"

	ntbshmem "repro"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ringreduce", flag.ExitOnError)
	hosts := fs.Int("hosts", 3, "number of hosts/PEs")
	elems := fs.Int("elems", 30_000, "elements per PE")
	fs.Parse(args)

	n := *hosts
	local := *elems

	// Deterministic input: x[g] = sin(g), y[g] = cos(g)/ (1+g mod 7).
	x := func(g int) float64 { return math.Sin(float64(g)) }
	y := func(g int) float64 { return math.Cos(float64(g)) / float64(1+g%7) }

	// Serial reference.
	var refDot, refMin, refMax float64
	refMin, refMax = math.Inf(1), math.Inf(-1)
	for g := 0; g < n*local; g++ {
		refDot += x(g) * y(g)
		v := x(g)
		if v < refMin {
			refMin = v
		}
		if v > refMax {
			refMax = v
		}
	}

	results := make([]struct{ dot, min, max float64 }, n)
	err := ntbshmem.Run(ntbshmem.Config{Hosts: n}, func(p *ntbshmem.Proc, pe *ntbshmem.PE) {
		me := pe.ID()
		partial := pe.MustMalloc(p, 8)
		dot := pe.MustMalloc(p, 8)
		mn := pe.MustMalloc(p, 8)
		mx := pe.MustMalloc(p, 8)
		pe.BarrierAll(p)

		var pd float64
		pmin, pmax := math.Inf(1), math.Inf(-1)
		for i := 0; i < local; i++ {
			g := me*local + i
			pd += x(g) * y(g)
			if v := x(g); v < pmin {
				pmin = v
			}
			if v := x(g); v > pmax {
				pmax = v
			}
		}
		ntbshmem.LocalPut(p, pe, partial, []float64{pd})
		ntbshmem.Reduce[float64](p, pe, ntbshmem.OpSum, dot, partial, 1)
		ntbshmem.LocalPut(p, pe, partial, []float64{pmin})
		ntbshmem.Reduce[float64](p, pe, ntbshmem.OpMin, mn, partial, 1)
		ntbshmem.LocalPut(p, pe, partial, []float64{pmax})
		ntbshmem.Reduce[float64](p, pe, ntbshmem.OpMax, mx, partial, 1)

		var out [1]float64
		ntbshmem.LocalGet(p, pe, dot, out[:])
		results[me].dot = out[0]
		ntbshmem.LocalGet(p, pe, mn, out[:])
		results[me].min = out[0]
		ntbshmem.LocalGet(p, pe, mx, out[:])
		results[me].max = out[0]
		if me == 0 {
			fmt.Fprintf(stdout, "[t=%v] reduced over %d PEs x %d elements\n", p.Now(), n, local)
		}
		pe.Finalize(p)
	})
	if err != nil {
		return err
	}

	for me, r := range results {
		if math.Abs(r.dot-refDot) > 1e-6*math.Abs(refDot) {
			return fmt.Errorf("PE %d dot=%v, reference %v", me, r.dot, refDot)
		}
		if r.min != refMin || r.max != refMax {
			return fmt.Errorf("PE %d min/max = %v/%v, reference %v/%v", me, r.min, r.max, refMin, refMax)
		}
	}
	fmt.Fprintf(stdout, "dot = %.9f, min = %.6f, max = %.6f — all PEs agree with the serial reference\n",
		refDot, refMin, refMax)
	return nil
}

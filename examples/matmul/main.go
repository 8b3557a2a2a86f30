// matmul: distributed dense matrix multiplication with ring rotation —
// the classic 1D-SUMMA pattern on the switchless NTB ring.
//
// A and B are row-striped across the PEs. Each of the N steps multiplies
// the local A panel against the B stripe currently held, then rotates
// the stripe one hop around the ring with a one-sided put into the
// neighbour's receive buffer, flagged by a remote add on its signal word
// (apps.Matmul). On the host the stripes are assembled and the product is
// checked against a serial multiplication.
//
// Run with: go run ./examples/matmul [-hosts N] [-dim M]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
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
	fs := flag.NewFlagSet("matmul", flag.ExitOnError)
	hosts := fs.Int("hosts", 3, "number of hosts/PEs")
	dim := fs.Int("dim", 48, "matrix dimension (divisible by hosts)")
	fs.Parse(args)
	n, m := *hosts, *dim
	if n < 1 || m%n != 0 {
		return fmt.Errorf("dim (%d) must be divisible by hosts (%d)", m, n)
	}

	// Deterministic inputs.
	rng := rand.New(rand.NewSource(2026))
	A := make([]float64, m*m)
	B := make([]float64, m*m)
	for i := range A {
		A[i] = rng.Float64()*2 - 1
		B[i] = rng.Float64()*2 - 1
	}

	C := make([]float64, m*m) // the distributed result, stripe by stripe
	err := ntbshmem.Run(ntbshmem.Config{Hosts: n}, func(p *ntbshmem.Proc, pe *ntbshmem.PE) {
		stripe := apps.Matmul(p, pe, A, B, m)
		copy(C[pe.ID()*len(stripe):], stripe)
		if pe.ID() == 0 {
			fmt.Fprintf(stdout, "[t=%v] %dx%d matmul across %d PEs complete\n", p.Now(), m, m, n)
		}
		pe.Finalize(p)
	})
	if err != nil {
		return err
	}

	// Serial reference.
	ref := make([]float64, m*m)
	for i := 0; i < m; i++ {
		for k := 0; k < m; k++ {
			a := A[i*m+k]
			for j := 0; j < m; j++ {
				ref[i*m+j] += a * B[k*m+j]
			}
		}
	}
	var maxErr float64
	for i := range ref {
		maxErr = max(maxErr, math.Abs(C[i]-ref[i]))
	}
	fmt.Fprintf(stdout, "max |distributed - serial| = %.3e\n", maxErr)
	if maxErr > 1e-9 {
		return fmt.Errorf("distributed matmul diverged from the serial reference by %.3e", maxErr)
	}
	fmt.Fprintln(stdout, "distributed result matches serial reference")
	return nil
}

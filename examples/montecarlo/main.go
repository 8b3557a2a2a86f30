// montecarlo: parallel pi estimation with remote atomics and a
// distributed lock — the "shared counter" idioms of the OpenSHMEM API.
//
// Every PE throws darts at the unit square with its own deterministic
// RNG stream and accumulates hits into a counter on PE 0 with
// FetchAddInt64. A distributed lock guards a shared "best estimate so
// far" record to demonstrate shmem_set_lock/clear_lock.
//
// Run with: go run ./examples/montecarlo [-hosts N] [-darts D]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"os"

	ntbshmem "repro"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("montecarlo", flag.ExitOnError)
	hosts := fs.Int("hosts", 4, "number of hosts/PEs")
	darts := fs.Int("darts", 200_000, "darts per PE")
	fs.Parse(args)

	n := *hosts
	perPE := *darts
	var estimate float64
	err := ntbshmem.Run(ntbshmem.Config{Hosts: n}, func(p *ntbshmem.Proc, pe *ntbshmem.PE) {
		hits := pe.MustMalloc(p, 8)   // global hit counter, lives on PE 0
		thrown := pe.MustMalloc(p, 8) // global dart counter, lives on PE 0
		lock := pe.MustMalloc(p, 8)   // distributed lock word
		best := pe.MustMalloc(p, 16)  // locked record: (estimate, darts)
		pe.BarrierAll(p)

		rng := rand.New(rand.NewSource(int64(pe.ID()) + 1))
		local := 0
		for i := 0; i < perPE; i++ {
			x, y := rng.Float64(), rng.Float64()
			if x*x+y*y <= 1 {
				local++
			}
		}
		// Batch the local tally into the shared counters atomically.
		pe.AddInt64(p, 0, hits, int64(local))
		totalThrown := pe.FetchAddInt64(p, 0, thrown, int64(perPE)) + int64(perPE)

		// Update the shared best-estimate record under the lock.
		pe.SetLock(p, lock)
		rec := make([]float64, 2)
		ntbshmem.Get(p, pe, 0, best, rec)
		if float64(totalThrown) > rec[1] {
			h := pe.FetchInt64(p, 0, hits)
			rec[0] = 4 * float64(h) / float64(totalThrown)
			rec[1] = float64(totalThrown)
			ntbshmem.Put(p, pe, 0, best, rec)
			pe.Fence(p)
		}
		pe.ClearLock(p, lock)
		pe.BarrierAll(p)

		if pe.ID() == 0 {
			h := ntbshmem.GetScalar[int64](p, pe, 0, hits)
			th := ntbshmem.GetScalar[int64](p, pe, 0, thrown)
			estimate = 4 * float64(h) / float64(th)
			fmt.Fprintf(stdout, "[t=%v] %d PEs threw %d darts, %d hits\n", p.Now(), pe.NumPEs(), th, h)
		}
		pe.Finalize(p)
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "pi ~= %.6f (error %.6f)\n", estimate, math.Abs(estimate-math.Pi))
	if math.Abs(estimate-math.Pi) > 0.05 {
		return errors.New("estimate implausibly far from pi; atomics are broken")
	}
	return nil
}

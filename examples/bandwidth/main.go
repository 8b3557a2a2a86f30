// bandwidth: an OSU-microbenchmark-style sweep over the public API —
// put and get latency/bandwidth between PE 0 and a chosen target, for
// message sizes 1KB-512KB, in DMA or memcpy mode.
//
// This is the same measurement the Fig 9 harness performs, expressed as
// a user program against the public API rather than the internal bench
// package.
//
// Run with: go run ./examples/bandwidth [-hosts N] [-target T] [-mode dma|memcpy]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	ntbshmem "repro"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bandwidth", flag.ExitOnError)
	hosts := fs.Int("hosts", 3, "number of hosts/PEs")
	target := fs.Int("target", 1, "PE that PE 0 talks to")
	mode := fs.String("mode", "dma", "transfer mode: dma or memcpy")
	pipeline := fs.Int("pipeline", 0, "link pipeline depth (0 = paper's stop-and-wait)")
	reps := fs.Int("reps", 10, "repetitions per size")
	fs.Parse(args)
	if *target <= 0 || *target >= *hosts {
		return fmt.Errorf("target must be in [1, %d)", *hosts)
	}
	m, ok := map[string]ntbshmem.Mode{"dma": ntbshmem.ModeDMA, "memcpy": ntbshmem.ModeCPU}[*mode]
	if !ok {
		return fmt.Errorf("mode %q: want dma or memcpy", *mode)
	}

	type row struct {
		size         int
		putUS, getUS float64
	}
	var rows []row
	err := ntbshmem.Run(ntbshmem.Config{Hosts: *hosts, Mode: m, Pipeline: *pipeline}, func(p *ntbshmem.Proc, pe *ntbshmem.PE) {
		sym := pe.MustMalloc(p, 512<<10)
		pe.BarrierAll(p)
		if pe.ID() == 0 {
			for size := 1 << 10; size <= 512<<10; size <<= 1 {
				buf := make([]byte, size)
				start := p.Now()
				for r := 0; r < *reps; r++ {
					pe.PutBytes(p, *target, sym, buf)
				}
				putUS := float64(p.Now()-start) / 1e3 / float64(*reps)
				start = p.Now()
				for r := 0; r < *reps; r++ {
					pe.GetBytes(p, *target, sym, buf)
				}
				getUS := float64(p.Now()-start) / 1e3 / float64(*reps)
				rows = append(rows, row{size, putUS, getUS})
			}
		}
		pe.BarrierAll(p)
		pe.Finalize(p)
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "# PE0 -> PE%d (%d hops rightward), mode %s, pipeline %d\n",
		*target, *target, *mode, *pipeline)
	fmt.Fprintf(stdout, "%-10s %12s %12s %12s %12s\n", "size", "put-lat(us)", "get-lat(us)", "put(MB/s)", "get(MB/s)")
	for i, r := range rows {
		fmt.Fprintf(stdout, "%-10s %12.2f %12.2f %12.2f %12.2f\n",
			fmt.Sprintf("%dKB", r.size>>10), r.putUS, r.getUS, float64(r.size)/r.putUS, float64(r.size)/r.getUS)
		// A larger message never completes sooner.
		if i > 0 && (r.putUS < rows[i-1].putUS || r.getUS < rows[i-1].getUS) {
			return fmt.Errorf("%dKB completed sooner than %dKB", r.size>>10, rows[i-1].size>>10)
		}
	}
	return nil
}

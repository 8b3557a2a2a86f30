// pingpong: classic two-sided latency measurement over the send/recv
// extension, side by side with the equivalent one-sided exchange —
// the E2 comparison as a runnable program.
//
// PE 0 and the farthest PE bounce a message back and forth; the program
// prints half-round-trip latency per size for (a) tagged send/recv and
// (b) put-with-signal, showing what rendezvous costs on this fabric.
//
// Run with: go run ./examples/pingpong [-hosts N] [-reps R]
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
	fs := flag.NewFlagSet("pingpong", flag.ExitOnError)
	hosts := fs.Int("hosts", 2, "ring size; PE 0 bounces against PE hosts-1")
	reps := fs.Int("reps", 5, "round trips per size")
	fs.Parse(args)

	type row struct {
		size               int
		sendUS, oneSidedUS float64
	}
	var rows []row
	err := ntbshmem.Run(ntbshmem.Config{Hosts: *hosts}, func(p *ntbshmem.Proc, pe *ntbshmem.PE) {
		// Every PE allocates and joins the barrier; only the two ends play.
		data := pe.MustMalloc(p, 512<<10)
		sig := pe.MustMalloc(p, 8)
		pe.BarrierAll(p)
		peer := pe.NumPEs() - 1
		me := pe.ID()
		if me != 0 && me != peer {
			return
		}
		other := peer
		if me == peer {
			other = 0
		}

		round := int64(0)
		for size := 1 << 10; size <= 512<<10; size <<= 2 {
			buf := make([]byte, size)

			// Two-sided ping-pong.
			start := p.Now()
			for r := 0; r < *reps; r++ {
				tag := int64(size + r)
				if me == 0 {
					pe.Send(p, other, tag, buf)
					pe.Recv(p, other, tag, buf)
				} else {
					pe.Recv(p, other, tag, buf)
					pe.Send(p, other, tag, buf)
				}
			}
			sendUS := float64(p.Now()-start) / 1e3 / float64(2**reps)

			// One-sided ping-pong: put-with-signal each way.
			start = p.Now()
			for r := 0; r < *reps; r++ {
				round++
				if me == 0 {
					pe.PutSignal(p, other, data, buf, sig, ntbshmem.SignalSet, round)
					pe.WaitUntilInt64(p, sig, ntbshmem.CmpGE, round)
				} else {
					pe.WaitUntilInt64(p, sig, ntbshmem.CmpGE, round)
					pe.PutSignal(p, other, data, buf, sig, ntbshmem.SignalSet, round)
				}
			}
			oneUS := float64(p.Now()-start) / 1e3 / float64(2**reps)
			if me == 0 {
				rows = append(rows, row{size, sendUS, oneUS})
			}
		}
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "# PE0 <-> PE%d half-round-trip latency\n", *hosts-1)
	fmt.Fprintf(stdout, "%-10s %16s %20s %8s\n", "size", "send/recv (us)", "put+signal (us)", "ratio")
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-10s %16.2f %20.2f %7.1fx\n",
			fmt.Sprintf("%dKB", r.size>>10), r.sendUS, r.oneSidedUS, r.sendUS/r.oneSidedUS)
	}
	return nil
}

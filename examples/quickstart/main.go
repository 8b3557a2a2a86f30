// Quickstart: the smallest complete ntbshmem program.
//
// Three hosts joined by the switchless PCIe NTB ring each run one PE.
// PE 0 puts a greeting into every PE's symmetric buffer, everyone
// synchronises with the paper's ring barrier, and each PE reads its copy
// back — the put/get/barrier triad of Table I.
//
// Run with: go run ./examples/quickstart
package main

import (
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
	if len(args) > 0 {
		return fmt.Errorf("quickstart takes no arguments, got %q", args)
	}
	cfg := ntbshmem.Config{Hosts: 3}
	received := make([]string, cfg.Hosts)
	var counter int64
	err := ntbshmem.Run(cfg, func(p *ntbshmem.Proc, pe *ntbshmem.PE) {
		// Symmetric allocation: same address on every PE.
		msg := pe.MustMalloc(p, 64)
		count := pe.MustMalloc(p, 8)
		pe.BarrierAll(p)

		if pe.ID() == 0 {
			for target := 1; target < pe.NumPEs(); target++ {
				buf := make([]byte, 64)
				copy(buf, greeting(target))
				pe.PutBytes(p, target, msg, buf)
			}
		}
		// Everyone bumps a shared counter on PE 0 with a remote atomic.
		pe.IncInt64(p, 0, count)
		pe.BarrierAll(p)

		if pe.ID() != 0 {
			buf := make([]byte, 64)
			pe.LocalRead(p, msg, buf)
			received[pe.ID()] = trim(buf)
			fmt.Fprintf(stdout, "[t=%v] PE %d received: %q\n", p.Now(), pe.ID(), received[pe.ID()])
		} else {
			counter = ntbshmem.GetScalar[int64](p, pe, 0, count)
			fmt.Fprintf(stdout, "[t=%v] PE 0 counter after atomics: %d\n", p.Now(), counter)
		}
		pe.Finalize(p)
	})
	if err != nil {
		return err
	}
	for target := 1; target < cfg.Hosts; target++ {
		if received[target] != greeting(target) {
			return fmt.Errorf("PE %d read %q", target, received[target])
		}
	}
	if counter != int64(cfg.Hosts) {
		return fmt.Errorf("counter is %d after %d increments", counter, cfg.Hosts)
	}
	return nil
}

func greeting(target int) string {
	return fmt.Sprintf("hello PE %d from PE 0 over PCIe NTB", target)
}

func trim(b []byte) string {
	for i, c := range b {
		if c == 0 {
			return string(b[:i])
		}
	}
	return string(b)
}

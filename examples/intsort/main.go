// intsort: a bucketed integer sort in the style of the NAS Parallel
// Benchmarks IS kernel, which the OpenSHMEM literature the paper cites
// uses as its standard workload.
//
// Each PE generates a deterministic slice of keys and buckets them by
// owning PE. The PEs exchange bucket sizes with an fcollect and ship each
// bucket to its owner with a one-sided put, flagged by a remote add on
// the owner's signal word (apps.IntSort). On the host each PE's received
// range is sorted, and the concatenation in PE order is checked against a
// serial sort of every key.
//
// Run with: go run ./examples/intsort [-hosts N] [-keys K]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"slices"

	ntbshmem "repro"
	"repro/apps"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("intsort", flag.ExitOnError)
	hosts := fs.Int("hosts", 4, "number of hosts/PEs")
	keys := fs.Int("keys", 50_000, "keys per PE")
	fs.Parse(args)
	n, perPE := *hosts, *keys

	// Deterministic global key set, one stream per PE.
	genKeys := func(pe int) []int32 {
		rng := rand.New(rand.NewSource(int64(pe) * 7919))
		out := make([]int32, perPE)
		for i := range out {
			out[i] = int32(rng.Intn(apps.KeyRange))
		}
		return out
	}

	got := make([][]int32, n)
	err := ntbshmem.Run(ntbshmem.Config{Hosts: n}, func(p *ntbshmem.Proc, pe *ntbshmem.PE) {
		got[pe.ID()] = apps.IntSort(p, pe, genKeys(pe.ID()))
		if pe.ID() == 0 {
			fmt.Fprintf(stdout, "[t=%v] %d PEs exchanged %d keys\n", p.Now(), n, n*perPE)
		}
		pe.Finalize(p)
	})
	if err != nil {
		return err
	}

	var dist, all []int32
	for pe, bucket := range got {
		slices.Sort(bucket)
		dist = append(dist, bucket...)
		all = append(all, genKeys(pe)...)
	}
	slices.Sort(all) // the serial reference
	if len(dist) != len(all) {
		return fmt.Errorf("distributed sort has %d keys, want %d", len(dist), len(all))
	}
	for i := range all {
		if dist[i] != all[i] {
			return fmt.Errorf("key %d: distributed %d, serial %d", i, dist[i], all[i])
		}
	}
	fmt.Fprintln(stdout, "distributed sort matches serial reference")
	return nil
}

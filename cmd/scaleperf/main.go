// Command scaleperf measures how the simulation engine scales with ring
// size: it runs the bench package's neighbour-put + barrier workload at
// each requested PE count and reports host-side throughput (events/s,
// worlds/s) per point. All simulated numbers stay deterministic; only
// the wall-clock denominators here vary between runs.
//
// Usage:
//
//	scaleperf [-pes 3,16,64,256,1024] [-reps N] [-put-bytes N]
//	          [-fabric ntb-ring|pcie-switch|cxl]
//
// The printed "virtual end" column is each world's final virtual time,
// identical on every run and machine; only the wall-clock columns change.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/model"
	"repro/internal/sim"
)

func main() {
	pesFlag := flag.String("pes", "3,16,64,256,1024", "comma-separated ring sizes to sweep")
	reps := flag.Int("reps", 3, "worlds to run per point (first warms the pool)")
	putBytes := flag.Int("put-bytes", 4096, "payload each PE puts to its right neighbour")
	common := bench.RegisterFlags(flag.CommandLine, bench.FlagSpec{
		Cmd:         "scaleperf",
		NoWorkers:   true,
		Fabric:      "ntb-ring",
		FabricUsage: "fabric backend to scale over: ntb-ring, pcie-switch, or cxl",
		Select:      true,
	})
	flag.Parse()
	common.Apply()
	kind := common.Kind()

	pes, err := bench.ParseHostCounts("pes", *pesFlag, kind)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scaleperf:", err)
		os.Exit(2)
	}
	if *reps < 1 {
		fmt.Fprintf(os.Stderr, "scaleperf: -reps=%d: need at least 1 rep\n", *reps)
		os.Exit(2)
	}
	if *putBytes < 1 {
		fmt.Fprintf(os.Stderr, "scaleperf: -put-bytes=%d: need a positive payload\n", *putBytes)
		os.Exit(2)
	}

	par := model.Default()
	fmt.Printf("%s scaling sweep: reps=%d put-bytes=%d gomaxprocs=%d\n\n",
		kind, *reps, *putBytes, runtime.GOMAXPROCS(0))
	fmt.Printf("%6s %8s %16s %15s %9s %14s %10s %10s\n",
		"pes", "worlds", "virtual events", "virtual end", "wall s", "events/s", "worlds/s", "ns/event")
	for _, n := range pes {
		w0, e0 := bench.WorldsSimulated(), bench.VirtualEvents()
		t0 := time.Now()
		var end sim.Time
		for r := 0; r < *reps; r++ {
			end = bench.ScaleWorkloadTime(par, n, *putBytes)
		}
		wall := time.Since(t0).Seconds()
		worlds, events := bench.WorldsSimulated()-w0, bench.VirtualEvents()-e0
		fmt.Printf("%6d %8d %16d %15v %9.3f %14.0f %10.2f %10.1f\n",
			n, worlds, events, end, wall,
			float64(events)/wall, float64(worlds)/wall, wall*1e9/float64(events))
	}
	bench.DrainWorldPool()
}

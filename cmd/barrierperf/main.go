// Command barrierperf reproduces Fig 10 of the paper (latency of
// shmem_barrier_all after Puts of varying size) and, with -ablation,
// the barrier-algorithm comparison of DESIGN.md (A1).
//
// Usage:
//
//	barrierperf [-ablation] [-fabric KIND] [-csv] [-j N]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/fabric"
	"repro/internal/model"
)

func main() {
	ablation := flag.Bool("ablation", false, "run the barrier-algorithm ablation instead of Fig 10")
	csv := flag.Bool("csv", false, "emit CSV instead of tables")
	common := bench.RegisterFlags(flag.CommandLine, bench.FlagSpec{
		Cmd:         "barrierperf",
		Fabric:      "ntb-ring",
		FabricUsage: "fabric backend to measure over: ntb-ring, pcie-switch, or cxl",
		PairNeeds:   "Fig 10 runs a 3-host world",
		Select:      true,
	})
	flag.Parse()
	common.Apply()
	if *ablation && common.Kind() != fabric.KindNTBRing {
		fmt.Fprintln(os.Stderr, "barrierperf: -ablation compares the ring's token barrier against dissemination and requires -fabric=ntb-ring")
		os.Exit(2)
	}

	par := model.Default()
	var f *bench.Figure
	if *ablation {
		f = bench.RunAblationBarrierAlgo(par)
	} else {
		f = bench.RunFig10(par)
	}
	if *csv {
		fmt.Print(f.CSV())
	} else {
		fmt.Println(f.Table())
	}
}

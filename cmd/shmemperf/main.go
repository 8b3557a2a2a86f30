// Command shmemperf reproduces Fig 9 of the paper: latency and
// throughput of the OpenSHMEM Put and Get operations over the switchless
// ring, for {DMA, memcpy} x {1 hop, 2 hops} and request sizes 1KB-512KB.
//
// Usage:
//
//	shmemperf [-op put|get|both] [-metric latency|throughput|both] [-fabric KIND] [-csv] [-j N]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/fabric"
	"repro/internal/model"
)

func main() {
	op := flag.String("op", "both", "operation to measure: put, get or both")
	metric := flag.String("metric", "both", "metric to report: latency, throughput or both")
	profile := flag.String("profile", "gen3x8", "platform profile (see model.Names)")
	csv := flag.Bool("csv", false, "emit CSV instead of tables")
	common := bench.RegisterFlags(flag.CommandLine, bench.FlagSpec{
		Cmd:         "shmemperf",
		Fabric:      "ntb-ring",
		FabricUsage: "fabric backend to measure over: ntb-ring, pcie-switch, or cxl",
		PairNeeds:   "Fig 9 sweeps a 3-host world",
		Select:      true,
	})
	flag.Parse()
	common.Apply()
	kind := common.Kind()

	par, err := model.Profile(*profile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shmemperf:", err)
		os.Exit(1)
	}
	figs := bench.RunFig9(par) // a: put lat, b: get lat, c: put tput, d: get tput

	want := func(f *bench.Figure) bool {
		lower := strings.ToLower(f.Title)
		if *op != "both" && !strings.Contains(lower, *op+" ") {
			return false
		}
		if *metric != "both" && !strings.Contains(lower, *metric) {
			return false
		}
		return true
	}
	printed := 0
	for _, f := range figs {
		if !want(f) {
			continue
		}
		printed++
		if *csv {
			fmt.Print(f.CSV())
		} else {
			fmt.Println(f.Table())
		}
	}
	if printed == 0 {
		fmt.Fprintf(os.Stderr, "shmemperf: no figure matches -op %q -metric %q\n", *op, *metric)
		os.Exit(1)
	}
	if kind != fabric.KindNTBRing {
		// The shape checks encode ring facts (hop sensitivity, relay
		// costs); on single-hop fabrics they are meaningless.
		return
	}
	if bad := bench.CheckFig9Shapes(figs); len(bad) != 0 {
		fmt.Fprintln(os.Stderr, "shmemperf: WARNING, paper-shape checks failed:")
		for _, b := range bad {
			fmt.Fprintln(os.Stderr, "  -", b)
		}
		os.Exit(2)
	}
}

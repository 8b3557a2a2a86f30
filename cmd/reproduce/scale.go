package main

import (
	"cmp"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/model"
	"repro/internal/sim"
)

// scale measures how the simulation engine scales with ring size: it
// runs the bench package's neighbour-put + barrier workload at each
// requested PE count and reports host-side throughput (events/s,
// worlds/s) per point, and what building one such world allocates per
// PE. The printed "virtual end" column is each world's final virtual
// time, identical on every run and machine; only the wall-clock columns
// change.
func scale(args []string, stdout, stderr io.Writer) int {
	c := newCLI("scale", "Engine scaling: the neighbour-put + barrier workload per PE count, host-side events/s and worlds/s beside the deterministic virtual end time.", stdout, stderr, &bench.FlagSpec{
		NoWorkers:   true,
		Fabric:      "ntb-ring",
		FabricUsage: "fabric backend to scale over: ntb-ring, pcie-switch, or cxl",
		Select:      true,
	})
	pesFlag := c.String("pes", "3,16,64,256,1024", "comma-separated ring sizes to sweep")
	reps := c.Int("reps", 3, "worlds to run per point (first warms the pool)")
	putBytes := c.Int("put-bytes", 4096, "payload each PE puts to its right neighbour")
	if code, ok := c.parse(args); !ok {
		return code
	}
	kind := c.shared.Kind()
	pes, err := bench.ParseHostCounts("pes", *pesFlag, kind)
	if err := cmp.Or(err, c.positive("reps", "put-bytes"), c.fitsHeap("put-bytes", *putBytes)); err != nil {
		return c.fail(2, err)
	}

	fmt.Fprintf(stdout, "%s scaling sweep: reps=%d put-bytes=%d gomaxprocs=%d\n\n",
		kind, *reps, *putBytes, runtime.GOMAXPROCS(0))
	fmt.Fprintf(stdout, "%6s %8s %16s %15s %9s %14s %10s %10s %11s\n",
		"pes", "worlds", "virtual events", "virtual end", "wall s", "events/s", "worlds/s", "ns/event", "build B/PE")
	for _, n := range pes {
		build := buildBytes(c.par, n) / float64(n)
		w0, e0 := bench.WorldsSimulated(), bench.VirtualEvents()
		t0 := time.Now()
		var end sim.Time
		for r := 0; r < *reps; r++ {
			end = bench.ScaleWorkloadTime(c.par, n, *putBytes)
		}
		wall := time.Since(t0).Seconds()
		worlds, events := bench.WorldsSimulated()-w0, bench.VirtualEvents()-e0
		fmt.Fprintf(stdout, "%6d %8d %16d %15v %9.3f %14.0f %10.2f %10.1f %11.0f\n",
			n, worlds, events, end, wall,
			float64(events)/wall, float64(worlds)/wall, wall*1e9/float64(events), build)
	}
	bench.DrainWorldPool()
	return 0
}

// buildBytes is what building one fresh n-PE world of the scaling
// workload allocates — fabric.New plus core.NewWorld, before any run —
// read as the TotalAlloc delta around it, outside the timed loop.
func buildBytes(par *model.Params, n int) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w := bench.NewScaleWorld(par, n)
	runtime.ReadMemStats(&after)
	w.Cluster.ShutdownSim()
	return float64(after.TotalAlloc - before.TotalAlloc)
}

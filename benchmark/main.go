// Command benchmark is the repository's benchmark: four closed-loop,
// single-client workloads run end to end through the simulator's
// exported functions, every simulated result checked, every metric of
// BENCHMARK.json printed by name. See README.md in this directory.
//
// The driver's contract form measures one workload and prints one JSON
// object as the last line of standard output:
//
//	go run ./benchmark --workload put1m --seed 7 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics from untraced blocks;
// --trace 1 alternates traced and untraced blocks, runs the layer
// probes, writes the spans to benchmark/out/ and reports the per-layer
// metrics. Without --workload the command runs every workload both
// ways in child processes and prints the whole table; with -agree it
// runs the workloads as interleaved sets A,B,A,B and fails when the two
// sets disagree by more than a metric's bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

// hostProcs is the GOMAXPROCS every run pins. A world is one chain of
// goroutine handoffs and the harness runs worlds at -j 1, so a second P
// adds nothing but cross-thread wake-ups: on the 2-core reference box
// the same workloads ran 10–25 % slower and with two to three times the
// run-to-run spread at GOMAXPROCS=2. The sim.handoff_ns_gmp2 probe
// keeps that cost visible.
const hostProcs = 1

// outDir receives the traced runs' span files.
var outDir = filepath.Join("benchmark", "out")

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last-line JSON object.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "run one workload (figsweep, ring256, put1m, get64k) and print its JSON result; empty runs all of them")
	seed := flag.Int64("seed", 1, "seed of the generated inputs (payload bytes, stamp offsets)")
	seconds := flag.Float64("seconds", 20, "host seconds each run measures")
	traceOn := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run plus the layer probes")
	agree := flag.Bool("agree", false, "run the workloads as interleaved sets A,B,A,B, compare the sets against the bounds and archive them")
	flag.Parse()

	if err := checkRegistry(); err != nil {
		fatal(err)
	}
	if *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) || flag.NArg() != 0 {
		fatal(fmt.Errorf("usage: --seconds must be positive, --trace 0 or 1, and no positional arguments"))
	}
	if *workload == "" {
		if err := runAll(*seed, *seconds, *agree); err != nil {
			fatal(err)
		}
		return
	}
	res, err := runOne(*workload, runConfig{seed: *seed, seconds: *seconds, traced: *traceOn == 1})
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// runOne measures one workload in this process and builds its result.
func runOne(name string, cfg runConfig) (*result, error) {
	// Pin the runtime and internal/bench's process-wide policy, so a
	// changed default cannot silently change the workloads.
	runtime.GOMAXPROCS(hostProcs)
	benchSetParallelism(1)
	benchSetShards(1)
	benchSetFabric(kindRing)
	benchSetWorldPool(true)
	benchSetWorldFork(true)
	fmt.Fprintf(os.Stderr, "benchmark: %s seed=%d seconds=%g trace=%v gomaxprocs=%d (of %d cpus) -j 1\n",
		name, cfg.seed, cfg.seconds, cfg.traced, hostProcs, runtime.NumCPU())

	m, err := runWorkload(name, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	var values map[string]float64
	var defs []metricDef
	if cfg.traced {
		peakRSS := peakRSSMiB() // before the probes build their own big worlds
		path := filepath.Join(outDir, "trace-"+name+".json")
		if err := m.tr.writeChrome(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "benchmark: %d spans -> %s\n", len(m.tr.spans), path)
		for _, st := range m.tr.selfTimes() {
			fmt.Fprintf(os.Stderr, "  span %-28s calls %8d  total %10.2f ms  self %10.2f ms\n",
				st.name, st.calls, float64(st.totalN)/1e6, float64(st.selfN)/1e6)
		}
		probes, err := runProbes()
		if err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		fmt.Fprintf(os.Stderr, "benchmark: peak RSS %.0f MiB after the workload, %.0f MiB after the probes\n", peakRSS, peakRSSMiB())
		defs, values = perLayer, perLayerValues(m, probes, peakRSS)
	} else {
		defs, values = endToEnd, endToEndValues(m, measureFidelity())
	}

	res := &result{
		Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed,
		Metrics: make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s has no value (%v)", name, d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(os.Stderr, "  %-40s %18.6f %-9s (%s is better)\n", d.Name, v, d.Unit, d.Better)
	}
	return res, nil
}

// endToEndValues derives the end-to-end metrics of an untraced run.
func endToEndValues(m *measurement, f fidelity) map[string]float64 {
	return map[string]float64{
		"setup_s":              median(m.setupS),
		"ops_per_s":            m.opsPerSec(false),
		"op_ms_p50":            m.opMsP50(),
		"live_heap_mib":        m.liveHeapMiB,
		"ok_share":             1 - float64(m.failed)/float64(m.attempted),
		"virt_us_per_op":       m.virtUsPerOp,
		"virt_put_MBps":        f.putMBps,
		"virt_get_MBps":        f.getMBps,
		"virt_barrier_us":      f.barrierUs,
		"paper_anchor_err_pct": f.anchorErrPct,
	}
}

// perLayerValues derives the per-layer metrics of a traced run: the
// probes' timings, the run's exact counts (0 where the workload does
// not exercise a layer or the harness cannot see it from outside), and
// the numbers computed from the run's own blocks.
func perLayerValues(m *measurement, probes map[string]float64, peakRSS float64) map[string]float64 {
	v := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		v[d.Name] = 0
	}
	for k, x := range probes {
		v[k] = x
	}
	for k, x := range m.counts {
		v[k] = x
	}
	if m.stepMs != nil {
		for step, ms := range m.stepMs[0] {
			v["bench.fig_ms."+step] = median(ms)
		}
	}
	untraced, traced := m.opsPerSec(false), m.opsPerSec(true)
	opNs := 1e9 / untraced
	v["sim.events_per_op"] = m.eventsPerOp
	v["sim.ns_per_event"] = opNs / m.eventsPerOp
	v["sim.handoff_share"] = probes["sim.handoff_ns"] * m.eventsPerOp / opNs
	v["trace.overhead_pct"] = 100 * (untraced - traced) / untraced
	ops := float64(m.opsPlain)
	if m.host.totalCPU > 0 { // the runtime refreshes its CPU classes per GC cycle; none ran, none spent
		v["host.gc_cpu_frac"] = m.host.gcCPU / m.host.totalCPU
	}
	v["host.gc_cycles_per_op"] = m.host.gcCycles / ops
	v["host.allocs_per_op"] = m.host.mallocs / ops
	v["host.alloc_bytes_per_op"] = m.host.allocBytes / ops
	v["host.peak_rss_mib"] = peakRSS
	v["host.op_ms_tail"] = percentile(m.opMs, tailPercentile(len(m.opMs)))
	v["host.op_tail_pct"] = tailPercentile(len(m.opMs))
	return v
}

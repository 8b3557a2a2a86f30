package main

import (
	"fmt"
	"regexp"
)

// metricDef is one named metric: its unit, which direction is better,
// and — for end-to-end metrics — the share of the parent's median by
// which it may worsen before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// exact is the bound of a simulated metric. Simulated results repeat to
// the last digit on any machine, so any change is a regression; the
// bound is a hair above zero only so that a validator that wants a
// positive number accepts it.
const exact = 1e-9

// endToEnd is what a user of the simulator sees, reported for every
// workload from the untraced blocks. Host time and simulated time are
// never mixed in one metric: virt_* and paper_* are simulated and
// repeat exactly; everything else is host wall-clock or host memory.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.20},
	{"op_ms_p50", "ms", "lower", 0.20},
	{"live_heap_mib", "MiB", "lower", 0.10},
	{"ok_share", "share", "higher", exact},
	{"virt_us_per_op", "sim_us", "lower", exact},
	{"virt_put_MBps", "sim_MB/s", "higher", exact},
	{"virt_get_MBps", "sim_MB/s", "higher", exact},
	{"virt_barrier_us", "sim_us", "lower", exact},
	{"paper_anchor_err_pct", "%", "lower", exact},
}

// perLayer is the cost table of the layers, reported by a traced run:
// probes time one layer's exported calls in isolation, counts are exact
// per-op tallies, and the rest is derived from the run's own blocks.
// They carry no bound.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	add("count", "lower", "sim.events_per_op")
	add("ns", "lower", "sim.ns_per_event", "sim.handoff_ns", "sim.handoff_ns_gmp2", "sim.callback_ns", "sim.pingpong_ns")
	add("share", "lower", "sim.handoff_share")
	add("ns", "lower", "sim.scale_ns_per_event.n16", "sim.scale_ns_per_event.n256", "sim.scale_ns_per_event.n1024")
	add("ns", "lower", "pcie.flow_churn_ns", "pcie.flow_solve16_ns")
	add("ns", "lower", "ntb.doorbell_ns", "ntb.spad_rw_ns", "ntb.cpuwrite_4k_ns")
	add("us", "lower", "ntb.dma_1m_us")
	add("count", "lower", "ntb.doorbells_per_op", "ntb.dma_descs_per_op", "ntb.spad_ops_per_op")
	add("ns", "lower", "driver.sendchunk_ns", "driver.pipe_sendchunk_ns")
	add("ns", "lower", "mem.alloc_free_ns")
	add("us", "lower", "mem.write_1m_us", "mem.snapshot_us", "mem.fork_us")
	add("count", "lower", "mem.cow_pages_per_op")
	add("ms", "lower", "fabric.new_ms.ring3", "fabric.new_ms.ring256", "fabric.new_ms.switch16", "fabric.new_ms.cxl16")
	add("MiB", "lower", "fabric.new_alloc_mib.ring256")
	add("ns", "lower", "fabric.put4k_ns.ring", "fabric.put4k_ns.pair", "fabric.put4k_ns.switch", "fabric.put4k_ns.cxl")
	add("ms", "lower", "core.world_new_ms.n3", "core.world_new_ms.n256", "core.init_ms")
	add("MiB", "lower", "core.init_alloc_mib.n3")
	add("us", "lower", "core.reset_us.n3", "core.reset_us.n256", "core.snapshot_us", "core.fork_us")
	add("ns", "lower", "core.barrier_ns.n3", "core.amo_ns")
	add("count", "lower", "core.puts_per_op", "core.gets_per_op", "core.chunks_per_op")
	add("share", "higher", "bench.pool_hit_share")
	add("count", "lower", "bench.worlds_per_sweep", "bench.events_per_sweep", "bench.forks_per_sweep",
		"bench.prefix_builds_per_sweep", "bench.cow_pages_per_sweep")
	add("count", "higher", "bench.prefix_events_saved_per_sweep")
	add("1/s", "higher", "bench.forks_per_s")
	add("ms", "lower", "bench.fig_ms."+drainStep)
	for _, g := range figureGroups {
		add("ms", "lower", "bench.fig_ms."+g.name)
	}
	add("%", "lower", "trace.overhead_pct")
	add("share", "lower", "host.gc_cpu_frac")
	// Allocation per op is 0 on put1m — the put path allocates nothing —
	// and a metric that can be 0 cannot carry a relative bound, so it is
	// reported here, from untraced blocks, and not end to end.
	add("count", "lower", "host.gc_cycles_per_op", "host.allocs_per_op")
	add("B/op", "lower", "host.alloc_bytes_per_op")
	add("MiB", "lower", "host.peak_rss_mib")
	// The tail of the op latency: the highest percentile with ten
	// samples beyond it, and which percentile that was. On the reference
	// VM it moves by a quarter between identical runs, so it carries no
	// bound and is not an end-to-end metric.
	add("ms", "lower", "host.op_ms_tail")
	add("%", "higher", "host.op_tail_pct")
	return out
}

// The contract's syntax and size limits for BENCHMARK.json.
var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

const (
	maxEndToEnd, maxPerLayer   = 16, 128
	minWorkloads, maxWorkloads = 2, 8
	maxBound                   = 0.25
)

// checkMetrics validates a metric list against the contract: name and
// unit syntax, unique names, a known direction, and — when bounded — a
// bound in (0, maxBound].
func checkMetrics(defs []metricDef, limit int, bounded bool, seen map[string]bool) error {
	if len(defs) < 1 || len(defs) > limit {
		return fmt.Errorf("%d metrics, want 1 to %d", len(defs), limit)
	}
	for _, d := range defs {
		switch {
		case !nameRE.MatchString(d.Name):
			return fmt.Errorf("metric name %q: want a letter or digit, then up to 63 of [A-Za-z0-9_.-]", d.Name)
		case seen[d.Name]:
			return fmt.Errorf("name %q is used twice", d.Name)
		case !unitRE.MatchString(d.Unit):
			return fmt.Errorf("metric %s: unit %q: want 1 to 16 of [A-Za-z0-9_/%%.-]", d.Name, d.Unit)
		case d.Better != "lower" && d.Better != "higher":
			return fmt.Errorf("metric %s: better is %q, want lower or higher", d.Name, d.Better)
		case bounded && (d.Bound <= 0 || d.Bound > maxBound):
			return fmt.Errorf("metric %s: bound %g outside (0, %g]", d.Name, d.Bound, maxBound)
		}
		seen[d.Name] = true
	}
	return nil
}

// checkWorkloadNames validates the workload list's size and names.
func checkWorkloadNames(names []string, seen map[string]bool) error {
	if len(names) < minWorkloads || len(names) > maxWorkloads {
		return fmt.Errorf("%d workloads, want %d to %d", len(names), minWorkloads, maxWorkloads)
	}
	for _, n := range names {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("workload name %q: want a letter or digit, then up to 63 of [A-Za-z0-9_.-]", n)
		}
		if seen[n] {
			return fmt.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	return nil
}

// checkRegistry validates the harness's own metric and workload tables.
func checkRegistry() error {
	seen := map[string]bool{}
	if err := checkWorkloadNames(workloadNames, seen); err != nil {
		return err
	}
	if err := checkMetrics(endToEnd, maxEndToEnd, true, seen); err != nil {
		return fmt.Errorf("end_to_end: %w", err)
	}
	if err := checkMetrics(perLayer, maxPerLayer, false, seen); err != nil {
		return fmt.Errorf("per_layer: %w", err)
	}
	return nil
}

// Command benchgate enforces the benchmark-regression gate in CI's
// bench-smoke target. It reads `go test -bench -benchmem` output and
// fails (exit 1) if any benchmark named in the committed baseline
// breaks its bounds, or is missing from the input — a silently skipped
// benchmark must not pass the gate.
//
// Usage:
//
//	benchgate -baseline bench_baseline.json [-input bench.out]
//
// The baseline file maps benchmark names (without the -N GOMAXPROCS
// suffix) to either a bare allocs/op ceiling, or an object carrying any
// of an allocs/op ceiling and an events/s floor (the custom metric
// benchmarks emit with b.ReportMetric):
//
//	{
//	  "BenchmarkWorldPut1M": 2,
//	  "BenchmarkSimEventThroughput": {"max_allocs_per_op": 19, "min_events_per_s": 15000000}
//	}
//
// allocs/op ceilings are exact and machine-independent, so they never
// flake; events/s floors are wall-clock and are set at half the rate
// measured on the reference container: a loaded CI runner passes, a
// kernel that lost its 2x does not.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/benchparse"
)

func main() {
	baselineFile := flag.String("baseline", "bench_baseline.json", "JSON map of benchmark name -> max allocs/op")
	input := flag.String("input", "", "benchmark output file (default stdin)")
	flag.Parse()

	raw, err := os.ReadFile(*baselineFile)
	if err != nil {
		fatal(err)
	}
	baseline, err := parseBaseline(raw)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", *baselineFile, err))
	}
	if len(baseline) == 0 {
		fatal(fmt.Errorf("%s: empty baseline gates nothing", *baselineFile))
	}

	var r io.Reader = os.Stdin
	if *input != "" {
		f, err := os.Open(*input)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	results, err := benchparse.Parse(r)
	if err != nil {
		fatal(err)
	}
	byName := make(map[string]benchparse.Result, len(results))
	for _, res := range results {
		byName[res.Name] = res
	}

	names := make([]string, 0, len(baseline))
	for name := range baseline {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := false
	for _, name := range names {
		g := baseline[name]
		res, ok := byName[name]
		if !ok {
			fmt.Printf("FAIL %-28s absent from benchmark output (%s)\n", name, g)
			failed = true
			continue
		}
		if g.MaxAllocsPerOp != nil {
			switch {
			case res.AllocsPerOp < 0:
				fmt.Printf("FAIL %-28s has no allocs/op (run with -benchmem)\n", name)
				failed = true
			case res.AllocsPerOp > *g.MaxAllocsPerOp:
				fmt.Printf("FAIL %-28s %d allocs/op, limit %d\n", name, res.AllocsPerOp, *g.MaxAllocsPerOp)
				failed = true
			default:
				fmt.Printf("ok   %-28s %d allocs/op (limit %d)\n", name, res.AllocsPerOp, *g.MaxAllocsPerOp)
			}
		}
		if g.MinEventsPerS != nil {
			got, has := res.Extra["events/s"]
			switch {
			case !has:
				fmt.Printf("FAIL %-28s reports no events/s metric (floor %.0f)\n", name, *g.MinEventsPerS)
				failed = true
			case got < *g.MinEventsPerS:
				fmt.Printf("FAIL %-28s %.0f events/s, floor %.0f\n", name, got, *g.MinEventsPerS)
				failed = true
			default:
				fmt.Printf("ok   %-28s %.0f events/s (floor %.0f)\n", name, got, *g.MinEventsPerS)
			}
		}
		if g.MinForksPerS != nil {
			got, has := res.Extra["forks/s"]
			switch {
			case !has:
				fmt.Printf("FAIL %-28s reports no forks/s metric (floor %.0f)\n", name, *g.MinForksPerS)
				failed = true
			case got < *g.MinForksPerS:
				fmt.Printf("FAIL %-28s %.0f forks/s, floor %.0f\n", name, got, *g.MinForksPerS)
				failed = true
			default:
				fmt.Printf("ok   %-28s %.0f forks/s (floor %.0f)\n", name, got, *g.MinForksPerS)
			}
		}
	}
	if failed {
		fmt.Println("benchgate: benchmark regression — adjust the baseline only with a justifying commit")
		os.Exit(1)
	}
}

// gate is one benchmark's bounds: an allocs/op ceiling and/or floors on
// the custom throughput metrics benchmarks emit with b.ReportMetric.
type gate struct {
	MaxAllocsPerOp *int64   `json:"max_allocs_per_op"`
	MinEventsPerS  *float64 `json:"min_events_per_s"`
	MinForksPerS   *float64 `json:"min_forks_per_s"`
}

func (g gate) String() string {
	parts := ""
	if g.MaxAllocsPerOp != nil {
		parts = fmt.Sprintf("limit %d allocs/op", *g.MaxAllocsPerOp)
	}
	if g.MinEventsPerS != nil {
		if parts != "" {
			parts += ", "
		}
		parts += fmt.Sprintf("floor %.0f events/s", *g.MinEventsPerS)
	}
	if g.MinForksPerS != nil {
		if parts != "" {
			parts += ", "
		}
		parts += fmt.Sprintf("floor %.0f forks/s", *g.MinForksPerS)
	}
	if parts == "" {
		return "no bounds"
	}
	return parts
}

// parseBaseline accepts both baseline forms per entry: a bare number is
// an allocs/op ceiling (the original format), an object sets explicit
// bounds. An entry with no bounds at all is a configuration error.
func parseBaseline(raw []byte) (map[string]gate, error) {
	var rough map[string]json.RawMessage
	if err := json.Unmarshal(raw, &rough); err != nil {
		return nil, err
	}
	out := make(map[string]gate, len(rough))
	for name, msg := range rough {
		var limit int64
		if err := json.Unmarshal(msg, &limit); err == nil {
			out[name] = gate{MaxAllocsPerOp: &limit}
			continue
		}
		var g gate
		if err := json.Unmarshal(msg, &g); err != nil {
			return nil, fmt.Errorf("entry %q: want an allocs/op number or a bounds object: %w", name, err)
		}
		if g.MaxAllocsPerOp == nil && g.MinEventsPerS == nil && g.MinForksPerS == nil {
			return nil, fmt.Errorf("entry %q gates nothing", name)
		}
		out[name] = g
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}

package main

import (
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// These tests cover the harness's own arithmetic and its agreement with
// BENCHMARK.json. None of them runs a workload, so `go test ./...`
// stays cheap.

func TestTailPercentileRule(t *testing.T) {
	// The highest candidate percentile with at least ten samples beyond
	// it; the median when even p90 has fewer.
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}, {200000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if pct := tailPercentile(c.n); pct != 50 && c.n-rankOf(pct, c.n)-1 < 10 {
			t.Errorf("n=%d: p%v has only %d samples beyond it", c.n, pct, c.n-rankOf(pct, c.n)-1)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // unsorted input
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := median(xs); got != 500.5 {
		t.Errorf("median of 1..1000 = %v, want 500.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v, want 2", got)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(percentile(nil, 99)) {
		t.Error("no samples must give NaN, which the result builder refuses")
	}
}

func TestFastDecileOfBlocks(t *testing.T) {
	// Twenty equal-work blocks: most disturbed to varying degrees, three
	// left alone. Throughput and latency are read at the undisturbed
	// decile, so how many blocks the noise covered does not move them.
	m := &measurement{}
	for i := 0; i < 20; i++ {
		slow := 1 + 0.05*float64(i%7)
		if i%7 == 0 {
			slow = 1
		}
		m.untraced = append(m.untraced, block{ops: 100, hostN: int64(slow * 1e9)})
		m.blockAt = append(m.blockAt, len(m.opMs))
		m.opMs = append(m.opMs, 9*slow, 10*slow, 30*slow) // the block's median is 10×slow
	}
	if got := m.opsPerSec(false); got != 100 {
		t.Errorf("opsPerSec = %v, want the undisturbed 100", got)
	}
	if got := m.opMsP50(); got != 10 {
		t.Errorf("opMsP50 = %v, want the undisturbed 10", got)
	}
	// figsweep: the undisturbed sweep is assembled per step.
	m = &measurement{counts: map[string]float64{"bench.worlds_per_sweep": 300}}
	m.stepMs = &[2]map[string][]float64{{
		"drain": {1, 1, 9, 1, 1, 1, 1, 1, 1, 1},
		"fig8":  {99, 140, 99, 99, 99, 180, 99, 99, 99, 99},
	}, {}}
	if got := m.opMsP50(); got != 100 {
		t.Errorf("figsweep opMsP50 = %v, want 1+99", got)
	}
	if got := m.opsPerSec(false); got != 3000 {
		t.Errorf("figsweep opsPerSec = %v, want 300 worlds / 0.1 s", got)
	}
}

func TestWorseBy(t *testing.T) {
	if got := worseBy(100, 110, "lower"); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("lower-is-better 100→110 worse by %v, want 0.1", got)
	}
	if got := worseBy(100, 90, "higher"); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("higher-is-better 100→90 worse by %v, want 0.1", got)
	}
	if got := worseBy(100, 90, "lower"); got >= 0 {
		t.Errorf("an improvement must be negative, got %v", got)
	}
}

func TestNameAndUnitSyntax(t *testing.T) {
	for _, ok := range []string{"a", "0x", "sim.scale_ns_per_event.n1024", "virt_put_MBps", "a-b", strings.Repeat("a", 64)} {
		if !nameRE.MatchString(ok) {
			t.Errorf("name %q refused", ok)
		}
	}
	for _, bad := range []string{"", ".a", "_a", "-a", "a b", "a/b", "a%", "µs", strings.Repeat("a", 65)} {
		if nameRE.MatchString(bad) {
			t.Errorf("name %q accepted", bad)
		}
	}
	for _, ok := range []string{"ms", "s", "1/s", "count", "%", "B/op", "sim_MB/s"} {
		if !unitRE.MatchString(ok) {
			t.Errorf("unit %q refused", ok)
		}
	}
	for _, bad := range []string{"", "µs", "a b", strings.Repeat("u", 17)} {
		if unitRE.MatchString(bad) {
			t.Errorf("unit %q accepted", bad)
		}
	}
}

func TestContractLimits(t *testing.T) {
	mk := func(n int) []metricDef {
		out := make([]metricDef, n)
		for i := range out {
			out[i] = metricDef{Name: fmt.Sprintf("m%d", i), Unit: "ms", Better: "lower", Bound: 0.1}
		}
		return out
	}
	check := func(defs []metricDef, limit int, bounded bool) error {
		return checkMetrics(defs, limit, bounded, map[string]bool{})
	}
	if check(mk(16), maxEndToEnd, true) != nil || check(mk(17), maxEndToEnd, true) == nil || check(nil, maxEndToEnd, true) == nil {
		t.Error("end_to_end takes 1 to 16 metrics")
	}
	if check(mk(128), maxPerLayer, false) != nil || check(mk(129), maxPerLayer, false) == nil {
		t.Error("per_layer takes 1 to 128 metrics")
	}
	for _, bad := range []metricDef{
		{"m", "ms", "lower", 0.26}, {"m", "ms", "lower", 0}, {"m", "ms", "smaller", 0.1}, {"m", "m s", "lower", 0.1}, {"m!", "ms", "lower", 0.1},
	} {
		if check([]metricDef{bad}, maxEndToEnd, true) == nil {
			t.Errorf("metric %+v accepted", bad)
		}
	}
	if check([]metricDef{{"m", "ms", "lower", 0.1}, {"m", "ms", "lower", 0.1}}, maxEndToEnd, true) == nil {
		t.Error("a name used twice accepted")
	}
	names := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("w%d", i)
		}
		return out
	}
	for n, want := range map[int]bool{1: false, 2: true, 8: true, 9: false} {
		if got := checkWorkloadNames(names(n), map[string]bool{}) == nil; got != want {
			t.Errorf("%d workloads accepted=%v, want %v", n, got, want)
		}
	}
	if err := checkRegistry(); err != nil {
		t.Errorf("the harness's own tables: %v", err)
	}
}

// benchmarkJSON mirrors BENCHMARK.json's exact key set.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	var have []string
	for k := range keys {
		have = append(have, k)
	}
	sort.Strings(have)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !reflect.DeepEqual(have, want) {
		t.Errorf("keys %v, want exactly %v", have, want)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Command, []string{"go", "run", "./benchmark"}) || !reflect.DeepEqual(spec.Paths, []string{"benchmark"}) {
		t.Errorf("command %v paths %v", spec.Command, spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", spec.RunSeconds)
	}
	// 4 + 22 runs per workload, their set-up and two builds must fit 3420 s.
	if runs := 4 + 22*len(spec.Workloads); runs*(spec.RunSeconds+12) > 3420-300 {
		t.Errorf("%d runs of %d s leave no room for set-up and builds inside 3420 s", runs, spec.RunSeconds)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, harness runs %v", names, workloadNames)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the harness:\n json %+v\n have %+v", spec.EndToEnd, endToEnd)
	}
	var layers []metricDef
	for _, m := range spec.PerLayer {
		layers = append(layers, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer differs from the harness:\n json %+v\n have %+v", layers, perLayer)
	}
	var setup *metricDef
	for i := range spec.EndToEnd {
		if spec.EndToEnd[i].Name == "setup_s" {
			setup = &spec.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower better: %+v", setup)
	}
	for _, d := range spec.EndToEnd {
		if setup != nil && d.Bound > setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", d.Name)
		}
	}
}

func TestPrintedNamesEqualDeclaredNames(t *testing.T) {
	m := &measurement{
		attempted: 10, opsTotal: 10, opsPlain: 10, setupS: []float64{1}, opMs: []float64{1},
		untraced: []block{{10, 1e9}}, traced: []block{{10, 1e9}}, blockAt: []int{0}, eventsPerOp: 5,
		counts: map[string]float64{"core.chunks_per_op": 1},
	}
	keys := func(v map[string]float64) []string {
		var out []string
		for k := range v {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	declared := func(defs []metricDef) []string {
		var out []string
		for _, d := range defs {
			out = append(out, d.Name)
		}
		sort.Strings(out)
		return out
	}
	if got, want := keys(endToEndValues(m, fidelity{})), declared(endToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end-to-end values %v, declared %v", got, want)
	}
	probes := map[string]float64{}
	for _, p := range allProbes() {
		probes[p.name] = 1
	}
	if got, want := keys(perLayerValues(m, probes, 1)), declared(perLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per-layer values %v, declared %v", got, want)
	}
	for name := range probes {
		if !contains(declared(perLayer), name) {
			t.Errorf("probe %s is not a declared per-layer metric", name)
		}
	}
}

func contains(xs []string, x string) bool {
	i := sort.SearchStrings(xs, x)
	return i < len(xs) && xs[i] == x
}

func TestOnlySurfaceImportsTheRepo(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		parsed, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range parsed.Imports {
			if strings.Contains(imp.Path.Value, "repro/") && f != "surface.go" {
				t.Errorf("%s imports %s; repository symbols are bound in surface.go only", f, imp.Path.Value)
			}
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := &tracer{on: true, spans: []span{
		{name: "op", parent: -1, start: 0, end: 100},
		{name: "put", parent: 0, start: 10, end: 40},
		{name: "barrier", parent: 0, start: 40, end: 90},
		{name: "op", parent: -1, start: 100, end: 150},
	}}
	got := map[string]spanTotals{}
	for _, st := range tr.selfTimes() {
		got[st.name] = st
	}
	if op := got["op"]; op.calls != 2 || op.totalN != 150 || op.selfN != 70 {
		t.Errorf("op totals %+v, want 2 calls, total 150, self 70", op)
	}
	if put := got["put"]; put.selfN != 30 || put.totalN != 30 {
		t.Errorf("put totals %+v", put)
	}
	var off *tracer
	if h := off.begin("x", 0); h != -1 {
		t.Errorf("a nil tracer recorded a span")
	}
	off.end(-1)
}

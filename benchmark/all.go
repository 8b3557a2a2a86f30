package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// The whole-benchmark modes. Every measurement is one child process in
// the driver's contract form, so a table or an agreement check reads
// exactly the numbers the driver would.

// resultsDir holds the archived agreement sets, one file per commit, so
// the next perf PR has a predecessor to be judged against.
var resultsDir = filepath.Join("benchmark", "results")

// agreeRounds is how many times -agree alternates the two sets:
// A,B,A,B.
const agreeRounds = 2

// child runs one workload in a fresh process and parses its last line.
func child(workload string, seed int64, seconds float64, trace int) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	fmt.Fprintf(os.Stderr, "benchmark: running %s seed=%d trace=%d …\n", workload, seed, trace)
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w\n%s", workload, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s: last line is not a result: %w", workload, err)
	}
	if !res.Correct || res.Failed != 0 {
		return nil, fmt.Errorf("%s: %d of %d ops failed their check", workload, res.Failed, res.Attempted)
	}
	return &res, nil
}

func runAll(seed int64, seconds float64, agree bool) error {
	if agree {
		return runAgree(seed, seconds)
	}
	e2e := map[string]*result{}
	layers := map[string]*result{}
	for _, w := range workloadNames {
		var err error
		if e2e[w], err = child(w, seed, seconds, 0); err != nil {
			return err
		}
		if layers[w], err = child(w, seed, seconds, 1); err != nil {
			return err
		}
	}
	printTable("end-to-end (tracing off)", endToEnd, e2e, true)
	printTable("per-layer (traced run + layer probes)", perLayer, layers, false)
	fmt.Printf("\nspans of the traced runs: %s/trace-<workload>.json\n", outDir)
	return nil
}

// printTable prints one row per metric and one value column per
// workload.
func printTable(title string, defs []metricDef, res map[string]*result, bounded bool) {
	fmt.Printf("\n%s\n%-38s %-9s %-7s", title, "metric", "unit", "better")
	if bounded {
		fmt.Printf(" %-7s", "bound")
	}
	for _, w := range workloadNames {
		fmt.Printf(" %16s", w)
	}
	fmt.Println()
	for _, d := range defs {
		fmt.Printf("%-38s %-9s %-7s", d.Name, d.Unit, d.Better)
		if bounded {
			fmt.Printf(" %-7s", boundLabel(d.Bound))
		}
		for _, w := range workloadNames {
			fmt.Printf(" %16.6g", res[w].Metrics[d.Name].Value)
		}
		fmt.Println()
	}
}

func boundLabel(b float64) string {
	if b == exact {
		return "exact"
	}
	return strconv.FormatFloat(100*b, 'g', 3, 64) + "%"
}

// agreement is one end-to-end metric on one workload, compared across
// the two sets.
type agreement struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	A        []float64 `json:"a"`
	B        []float64 `json:"b"`
	MedianA  float64   `json:"median_a"`
	MedianB  float64   `json:"median_b"`
	Gap      float64   `json:"gap"`
	Bound    float64   `json:"bound"`
}

// archive is the record -agree leaves under resultsDir.
type archive struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	CPUs       int     `json:"cpus"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Seconds    float64 `json:"seconds"`
	FirstSeed  int64   `json:"first_seed"`
	// Claim is what this record asserts about performance. The change
	// that defines the benchmark claims nothing.
	Claim     *string                           `json:"claim"`
	EndToEnd  []agreement                       `json:"end_to_end"`
	PerLayer  map[string]map[string]metricValue `json:"per_layer"`
	Agreement string                            `json:"agreement"`
}

// runAgree measures the workloads as interleaved sets A,B,A,B of the
// same code, each pass with another seed, and checks that the two sets'
// medians agree within every end-to-end metric's bound. The accepted
// sets, plus one traced run per workload, are archived by commit.
func runAgree(seed int64, seconds float64) error {
	sets := [2]map[string][]*result{{}, {}}
	for pass := 0; pass < 2*agreeRounds; pass++ {
		for _, w := range workloadNames {
			r, err := child(w, seed+int64(pass), seconds, 0)
			if err != nil {
				return err
			}
			sets[pass%2][w] = append(sets[pass%2][w], r)
		}
	}
	values := func(rs []*result, name string) []float64 {
		out := make([]float64, len(rs))
		for i, r := range rs {
			out[i] = r.Metrics[name].Value
		}
		return out
	}
	rec := archive{
		Commit: commitID(), GoVersion: runtime.Version(), CPUs: runtime.NumCPU(), GoMaxProcs: hostProcs,
		Seconds: seconds, FirstSeed: seed, PerLayer: map[string]map[string]metricValue{},
	}
	var over []string
	fmt.Printf("%-9s %-22s %-9s %16s %16s %9s %9s\n", "workload", "metric", "unit", "median A", "median B", "gap", "bound")
	for _, w := range workloadNames {
		for _, d := range endToEnd {
			a := agreement{Workload: w, Metric: d.Name, Unit: d.Unit, Bound: d.Bound,
				A: values(sets[0][w], d.Name), B: values(sets[1][w], d.Name)}
			a.MedianA, a.MedianB = median(a.A), median(a.B)
			// Either set, taken as the predecessor, must accept the other.
			a.Gap = max(worseBy(a.MedianA, a.MedianB, d.Better), worseBy(a.MedianB, a.MedianA, d.Better), 0)
			flag := ""
			if a.Gap > d.Bound {
				flag = "  OVER BOUND"
				over = append(over, w+"/"+d.Name)
			}
			fmt.Printf("%-9s %-22s %-9s %16.6g %16.6g %8.3f%% %9s%s\n",
				w, d.Name, d.Unit, a.MedianA, a.MedianB, 100*a.Gap, boundLabel(d.Bound), flag)
			rec.EndToEnd = append(rec.EndToEnd, a)
		}
	}
	if len(over) != 0 {
		return fmt.Errorf("two sets of the same code disagree beyond the bound on %s", strings.Join(over, ", "))
	}
	rec.Agreement = fmt.Sprintf("sets A and B (%d runs each per workload, interleaved) agree within every bound", agreeRounds)
	for _, w := range workloadNames {
		r, err := child(w, seed, seconds, 1)
		if err != nil {
			return err
		}
		rec.PerLayer[w] = r.Metrics
	}
	buf, err := json.MarshalIndent(&rec, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(resultsDir, rec.Commit+".json")
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\n%s; archived as %s\n", rec.Agreement, path)
	return nil
}

// commitID names the measured code: git's HEAD, or "unknown" outside a
// git checkout (the driver's).
func commitID() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

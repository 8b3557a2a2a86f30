package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/fabric"
	"repro/internal/model"
)

// runCLI drives run in-process. The flags install process-global bench
// policy, so each call starts from the defaults a fresh process has.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	defaultPolicy()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// defaultPolicy reinstalls the bench policy a fresh process starts with.
func defaultPolicy() {
	bench.SetFabric(fabric.KindNTBRing)
	bench.SetParallelism(0)
}

func TestMain(m *testing.M) {
	code := m.Run()
	bench.DrainWorldPool() // release the pooled worlds' parked goroutines
	os.Exit(code)
}

func TestSubcommandsRun(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string // a line stdout must contain
	}{
		{"fig8 -hosts 4", "Fig 8 (custom) — Per-link and total transfer rate, 4-host ring (MB/s)"},
		{"fig8 -fabric cxl", "Request Size              cxl"},
		{"fig10 -ablation", "A1 — "},
		{"fig10 -fabric pcie-switch", "Fig 10 — "},
		{"apps -kernel heat1d -hosts 3", "profile gen3x8, 3 hosts, ntb-ring fabric (every kernel self-verifies)"},
		{"scale -pes 3,16 -reps 1", "ntb-ring scaling sweep: reps=1 put-bytes=4096"},
		{"trace -workload put", `workload "put" on 3 hosts finished at t=`},
		{"trace -workload get -hosts 4", `workload "get" on 4 hosts finished at t=`},
		{"trace -workload barrier", "barrier          18            0"},
		{"trace", "h2.right   dma engine utilization"},
		{"trace -workload allpairs -size 4096", "switchless ring: [host0]--2.9GB/s--[host1]--3.1GB/s--[host2]--2.6GB/s--[host0]"},
		{"params -profile gen4x8", `profile "gen4x8" (available: `},
	} {
		code, stdout, stderr := runCLI(t, strings.Fields(tc.args)...)
		if code != 0 || stderr != "" {
			t.Errorf("reproduce %s: exit %d, stderr %q", tc.args, code, stderr)
		}
		if !strings.Contains(stdout, tc.want) {
			t.Errorf("reproduce %s: stdout lacks %q:\n%s", tc.args, tc.want, stdout)
		}
	}
	// -op and -metric select one of Fig 9's four panels.
	code, stdout, stderr := runCLI(t, "fig9", "-op", "get", "-metric", "latency", "-csv")
	if code != 0 || stderr != "" || strings.Count(stdout, "Request Size,DMA 1 hop,DMA 2 hops,memcpy 1 hop,memcpy 2 hops\n") != 1 {
		t.Errorf("reproduce fig9 -op get -metric latency -csv: exit %d, stderr %q, stdout:\n%s", code, stderr, stdout)
	}
}

// TestBadFlagValuesAreUsageErrors: no flag value may reach a simulated
// world it would crash; each is one line on stderr under the subcommand's
// name and exit status 2, as from flag.Parse.
func TestBadFlagValuesAreUsageErrors(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"fig8 -hosts 0", "reproduce fig8: -hosts: cluster size 0 out of range [2, 2047] for the ntb-ring fabric"},
		{"fig8 -hosts 1", "reproduce fig8: -hosts: cluster size 1 out of range"},
		{"fig8 -fabric ntb-pair -hosts 5", "reproduce fig8: -hosts=5: only the ntb-ring measurement takes a ring size"},
		{"fig8 -gen 9", "reproduce fig8: model: Gen must be 1..3, got 9"},
		{"fig9 -fabric token-ring", "reproduce fig9: -fabric: fabric: unknown fabric kind"},
		{"fig9 -fabric ntb-pair", "reproduce fig9: -fabric=ntb-pair: Fig 9 sweeps a 3-host world"},
		{"fig9 -op foo", `reproduce fig9: -op="foo": want put, get, both`},
		{"fig9 -metric speed", `reproduce fig9: -metric="speed": want latency, throughput, both`},
		{"fig9 -profile gen9x9", "reproduce fig9: -profile: model: unknown profile"},
		{"fig10 -ablation -fabric cxl", "reproduce fig10: -ablation compares the ring's token barrier"},
		{"apps -dim 0 -kernel matmul", "reproduce apps: -dim=0: need a positive value"},
		{"apps -cells 0 -kernel heat1d", "reproduce apps: -cells=0: need a positive value"},
		{"apps -steps 0", "reproduce apps: -steps=0: need a positive value"},
		{"apps -keys -1", "reproduce apps: -keys=-1: need a positive value"},
		{"apps -hosts 1", "reproduce apps: -hosts: cluster size 1 out of range"},
		{"apps -fabric ntb-pair -hosts 3", "reproduce apps: -hosts: cluster size 3 out of range [2, 2] for the ntb-pair fabric"},
		{"apps -kernel fft", `reproduce apps: -kernel="fft": want heat1d, matmul, intsort, all`},
		{"scale -pes 3 -put-bytes 999999999", "reproduce scale: -put-bytes=999999999: the payload must fit the symmetric heap"},
		{"scale -pes 3 -put-bytes 268435456", "reproduce scale: -put-bytes=268435456: the payload must fit the symmetric heap"},
		{"scale -put-bytes 0", "reproduce scale: -put-bytes=0: need a positive value"},
		{"scale -reps 0", "reproduce scale: -reps=0: need a positive value"},
		{"scale -pes 3,x", `reproduce scale: -pes: "x" is not a cluster size`},
		{"scale -fabric cxl -pes 300", "reproduce scale: -pes: cluster size 300 out of range [2, 256] for the cxl fabric"},
		{"trace -size 0", "reproduce trace: -size=0: need a positive value"},
		{"trace -size -1", "reproduce trace: -size=-1: need a positive value"},
		{"trace -size 268435456", "reproduce trace: -size=268435456: the payload must fit the symmetric heap"},
		{"trace -workload foo", `reproduce trace: -workload="foo": want put, get, barrier, mix, allpairs`},
		{"trace -hosts 1", "reproduce trace: -hosts: cluster size 1 out of range"},
		{"trace mix", `reproduce trace: unexpected argument "mix"`},
		{"params -profile gen9x9", "reproduce params: -profile: model: unknown profile"},
		{"params gen3x8", `reproduce params: unexpected argument "gen3x8"`},
		{"-fabric ntb-ring,token-ring", "reproduce: -fabric: fabric: unknown fabric kind"},
		{"-j 1 fig8", `reproduce: unexpected argument "fig8"`},
		{"fig11", `reproduce: unknown subcommand "fig11"`},
	} {
		code, stdout, stderr := runCLI(t, strings.Fields(tc.args)...)
		if code != 2 {
			t.Errorf("reproduce %s: exit %d, want 2", tc.args, code)
		}
		if !strings.HasPrefix(stderr, tc.want) || strings.Count(stderr, "\n") != 1 {
			t.Errorf("reproduce %s: stderr %q, want one line starting %q", tc.args, stderr, tc.want)
		}
		if strings.Contains(stderr, "goroutine ") || stdout != "" {
			t.Errorf("reproduce %s: got past its flags:\nstdout: %s\nstderr: %s", tc.args, stdout, stderr)
		}
	}
	// The flag package's own errors come with the subcommand's usage.
	code, _, stderr := runCLI(t, "fig8", "-hosts", "many")
	if code != 2 || !strings.Contains(stderr, "usage: reproduce fig8 [flags]") {
		t.Errorf("reproduce fig8 -hosts many: exit %d, stderr %q", code, stderr)
	}
	if code, _, stderr := runCLI(t, "scale", "-h"); code != 0 || !strings.Contains(stderr, "-put-bytes") {
		t.Errorf("reproduce scale -h: exit %d, stderr %q", code, stderr)
	}
	// trace and params take none of the shared flags.
	for _, args := range [][]string{{"trace", "-j", "2"}, {"params", "-fabric", "cxl"}} {
		if code, _, stderr := runCLI(t, args...); code != 2 || !strings.Contains(stderr, "flag provided but not defined: "+args[1]) {
			t.Errorf("reproduce %s: exit %d, stderr %q", strings.Join(args, " "), code, stderr)
		}
	}
}

// TestTraceAndParamsWriteFiles: trace -out writes Chrome trace JSON that
// decodes, and params -dump writes a profile that model.LoadParams reads
// back equal, the round trip `reproduce -params` relies on.
func TestTraceAndParamsWriteFiles(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "trace.json")
	if code, _, stderr := runCLI(t, "trace", "-out", out); code != 0 {
		t.Fatalf("reproduce trace -out: exit %d, stderr %q", code, stderr)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil || len(events) == 0 {
		t.Errorf("trace -out: %d events, decode error %v", len(events), err)
	}

	dump := filepath.Join(dir, "params.json")
	if code, _, stderr := runCLI(t, "params", "-dump", dump); code != 0 {
		t.Fatalf("reproduce params -dump: exit %d, stderr %q", code, stderr)
	}
	got, err := model.LoadParams(dump)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := model.Profile("gen3x8")
	if !reflect.DeepEqual(got, want) {
		t.Errorf("params -dump does not round-trip:\n got %+v\nwant %+v", *got, *want)
	}
}

// TestReproduceOutputIsCurrent regenerates the committed
// reproduce_output.txt (`make reproduce`). Stdout carries virtual-time
// results only, so it must match byte for byte on any machine and at any
// worker count; everything host-side is on stderr.
func TestReproduceOutputIsCurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("the full figure list in -short mode")
	}
	want, err := os.ReadFile("../../reproduce_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runCLI(t, "-j", "4")
	if code != 0 {
		t.Fatalf("reproduce: exit %d, stderr:\n%s", code, stderr)
	}
	if stdout != string(want) {
		t.Errorf("reproduce's stdout differs from reproduce_output.txt; run `make reproduce` and review the diff.\n%s", firstDiff(string(want), stdout))
	}
	for _, hostSide := range []string{"parallel runner: 4 workers", "[Fig 9: ", "simulated ", "snapshot fork: "} {
		if !strings.Contains(stderr, hostSide) || strings.Contains(stdout, hostSide) {
			t.Errorf("host-side line %q belongs on stderr only", hostSide)
		}
	}
}

// BenchmarkReproduce runs the whole figure list per op on one worker,
// with the world pool and snapshot cache drained first as a fresh process
// has them. `make profile` profiles it over enough ops to show per-figure
// host costs that one run is too short to sample.
func BenchmarkReproduce(b *testing.B) {
	defaultPolicy()
	for i := 0; i < b.N; i++ {
		bench.DrainWorldPool()
		bench.DrainSnapshots()
		if code := run([]string{"-j", "1"}, io.Discard, io.Discard); code != 0 {
			b.Fatalf("reproduce -j 1: exit %d", code)
		}
	}
}

// TestBenchCeilings holds the bytes a drained sweep allocates:
// BenchmarkReproduce at 28 MB/op. It fails if a per-chunk staging frame,
// a per-call codec buffer or a per-point destination buffer comes back
// on the figure path (a sweep allocated 89.6 MB with them), if a
// pipelined receiver's window goes back to materialising its whole slot
// ring, with typed ops marshalling through copies (48.6 MB), or if
// pooled worlds go back to keeping their heap pages, slot blocks and
// staging buffers instead of lending them on through mem's block lender
// (31.2 MB; 23.4 MB without).
func TestBenchCeilings(t *testing.T) {
	if testing.Short() {
		t.Skip("drained figure sweeps for a second in -short mode")
	}
	if raceEnabled() {
		t.Skip("the race detector's instrumentation allocates")
	}
	r := testing.Benchmark(BenchmarkReproduce)
	if got := float64(r.MemBytes) / float64(r.N); got > 28e6 {
		t.Errorf("BenchmarkReproduce: %.0f B/op, ceiling 28000000", got)
	}
}

// raceEnabled reports whether this test binary was built with -race,
// read from its build settings.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// firstDiff names the first line at which two outputs part.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n- %s\n+ %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("%d lines committed, %d produced", len(w), len(g))
}

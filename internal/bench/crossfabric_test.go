package bench

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fabric"
	"repro/internal/model"
)

// crossFabricGoldenKinds is the backend set archived in results/e6.csv —
// the default -fabric sweep of cmd/reproduce.
func crossFabricGoldenKinds() []fabric.Kind {
	return []fabric.Kind{fabric.KindNTBRing, fabric.KindPCIeSwitch, fabric.KindCXL}
}

// TestGoldenCrossFabric regenerates the E6 cross-fabric figure and
// byte-compares it against the archived results/e6.csv, once per
// snapshot-fork mode: every backend must produce identical virtual-time
// results whether its warm-up prefix is replayed from t=0 or forked
// from a cached snapshot, at any worker count.
func TestGoldenCrossFabric(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-fabric golden sweep in -short mode")
	}
	wasOn := forkOn.Load()
	defer SetWorldFork(wasOn)
	for _, forkOn := range []bool{false, true} {
		t.Run(map[bool]string{false: "replay", true: "fork"}[forkOn], func(t *testing.T) {
			SetWorldFork(forkOn)
			DrainWorldPool()
			DrainSnapshots()
			f := RunCrossFabric(model.Default(), crossFabricGoldenKinds())
			name := CSVFileName(f.ID)
			want, err := os.ReadFile(filepath.Join("..", "..", "results", name))
			if err != nil {
				t.Fatalf("%s: no archived golden: %v", f.ID, err)
			}
			got := f.CSV()
			if got != string(want) {
				t.Errorf("%s: regenerated CSV differs from results/%s:\n%s",
					f.ID, name, firstDiff(string(want), got))
			}
		})
	}
}

// TestCrossFabricShapes checks the qualitative relationships the E6
// figure exists to show: every backend moves data (no zero or negative
// throughput anywhere), and at the largest request the load/store CXL
// window — which pays no doorbell interrupts, service-thread wake-ups,
// or stop-and-wait chunk ACKs — beats the multi-hop ring.
func TestCrossFabricShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-fabric sweep in -short mode")
	}
	f := RunCrossFabric(model.Default(), crossFabricGoldenKinds())
	if len(f.Series) != 3 {
		t.Fatalf("expected 3 series, got %d", len(f.Series))
	}
	for _, s := range f.Series {
		if len(s.Points) != len(Sizes()) {
			t.Errorf("series %q: %d points, want %d", s.Label, len(s.Points), len(Sizes()))
		}
		for _, pt := range s.Points {
			if pt.Value <= 0 {
				t.Errorf("series %q at %d: non-positive throughput %f", s.Label, pt.Size, pt.Value)
			}
		}
	}
	const big = 512 << 10
	ring, err := f.SeriesByLabel("ntb-ring").At(big)
	if err != nil {
		t.Fatal(err)
	}
	cxl, err := f.SeriesByLabel("cxl").At(big)
	if err != nil {
		t.Fatal(err)
	}
	if cxl <= ring {
		t.Errorf("CXL window (%f MB/s) not faster than the NTB ring (%f MB/s) at 512KB", cxl, ring)
	}
}

// BenchmarkSwitchWorld runs the E6 workload on a pooled 4-host
// PCIe-switch world per op and reports engine throughput as events/s:
// the switch fabric's flow-network routing (per-host uplinks through a
// shared core) must not regress into per-event re-solves, which the
// repository benchmark's fabric.put4k_ns.switch watches.
func BenchmarkSwitchWorld(b *testing.B) {
	DrainWorldPool()
	prev := Fabric()
	SetFabric(fabric.KindPCIeSwitch)
	defer func() {
		SetFabric(prev)
		DrainWorldPool()
	}()
	par := model.Default()
	MeasureCrossFabricPut(par, crossFabricHosts, 64<<10, 2) // build + pool outside the timer
	e0 := VirtualEvents()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MeasureCrossFabricPut(par, crossFabricHosts, 64<<10, 2)
	}
	b.StopTimer()
	b.ReportMetric(float64(VirtualEvents()-e0)/b.Elapsed().Seconds(), "events/s")
}

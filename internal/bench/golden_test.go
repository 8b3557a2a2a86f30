package bench

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/model"
)

// Golden-number regression tests: EXPERIMENTS.md cites these exact
// virtual-time results; any change to the model, the protocols, or the
// simulator that moves them must be deliberate (update both the table
// and this file in the same change).

func golden(t *testing.T, what string, got, want, tolPct float64) {
	t.Helper()
	if want == 0 {
		t.Fatalf("%s: zero golden value", what)
	}
	if rel := math.Abs(got-want) / want * 100; rel > tolPct {
		t.Errorf("%s drifted: got %.2f, golden %.2f (%.2f%% > %.1f%%) — update EXPERIMENTS.md if intended",
			what, got, want, rel, tolPct)
	}
}

func TestGoldenNumbers(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep in -short mode")
	}
	par := model.Default()

	// Fig 8: raw link peak and 1KB point (MB/s).
	golden(t, "fig8 independent 512KB", Fig8Independent(par, 0, 512<<10), 2850.80, 0.5)
	golden(t, "fig8 independent 1KB", Fig8Independent(par, 0, 1<<10), 294.76, 0.5)
	golden(t, "fig8 ring 512KB", Fig8Ring(par, 3, 512<<10)[0], 2705.71, 0.5)

	// Fig 9: put and get anchors (us).
	golden(t, "put DMA 1hop 512KB", MeasureShmemOp(par, OpPut, driver.ModeDMA, 1, 512<<10, 5), 1562.10, 0.5)
	golden(t, "put memcpy 1hop 512KB", MeasureShmemOp(par, OpPut, driver.ModeCPU, 1, 512<<10, 5), 1750.82, 0.5)
	golden(t, "get DMA 1hop 512KB", MeasureShmemOp(par, OpGet, driver.ModeDMA, 1, 512<<10, 5), 13343.77, 0.5)
	golden(t, "get DMA 2hop 512KB", MeasureShmemOp(par, OpGet, driver.ModeDMA, 2, 512<<10, 5), 23087.13, 0.5)

	// Fig 10: barrier latency (us), flat across sizes.
	golden(t, "barrier after 1KB put", MeasureBarrierAfterPut(par, driver.ModeDMA, 1, 1<<10, 5), 1093.80, 1.0)
	golden(t, "barrier after 512KB put", MeasureBarrierAfterPut(par, driver.ModeDMA, 1, 512<<10, 5), 1093.80, 1.0)

	// A6: the pipelined protocol's headline (MB/s at depth 8).
	put8, _ := MeasurePipelined(par, 8, 512<<10, 5)
	golden(t, "pipelined put depth 8", MBps(512<<10, int64(put8*1e3)), 1725.11, 2.0)

	// A1: barrier algorithms at n=8 (us).
	golden(t, "ring barrier n=8", MeasureBarrierLatency(par, core.BarrierRing, 8, 5), 2916.80, 1.0)
	golden(t, "dissemination barrier n=8", MeasureBarrierLatency(par, core.BarrierDissemination, 8, 5), 1225.28, 1.0)
}

// TestGoldenCSVs regenerates the Fig 8, Fig 9, and A6 figure groups and
// byte-compares their CSV renderings against the archived files in
// results/. Unlike TestGoldenNumbers' tolerance bands, this diff is
// exact: the incremental flow solver, solve coalescing, and every other
// hot-path rewrite must not move any virtual-time figure by even one
// nanosecond. A mismatch prints a line-level diff of the first divergent
// figure. The sweep runs once per snapshot-fork mode: the fork path must
// reproduce the replay path's archived bytes, not merely its own.
func TestGoldenCSVs(t *testing.T) {
	if testing.Short() {
		t.Skip("golden CSV sweep in -short mode")
	}
	wasOn := forkOn.Load()
	defer SetWorldFork(wasOn)
	for _, forkOn := range []bool{false, true} {
		t.Run(map[bool]string{false: "replay", true: "fork"}[forkOn], func(t *testing.T) {
			SetWorldFork(forkOn)
			DrainWorldPool()
			DrainSnapshots()
			par := model.Default()
			var figs []*Figure
			figs = append(figs, RunFig8(par)...)
			figs = append(figs, RunFig9(par)...)
			figs = append(figs, RunAblationPipeline(par))
			for _, f := range figs {
				name := CSVFileName(f.ID)
				want, err := os.ReadFile(filepath.Join("..", "..", "results", name))
				if err != nil {
					t.Errorf("%s: no archived golden: %v", f.ID, err)
					continue
				}
				got := f.CSV()
				if got == string(want) {
					continue
				}
				t.Errorf("%s: regenerated CSV differs from results/%s:\n%s",
					f.ID, name, firstDiff(string(want), got))
			}
		})
	}
}

// firstDiff renders the first line where two CSV bodies diverge.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n  golden: %s\n  got:    %s", i+1, w, g)
		}
	}
	return "(contents equal?)"
}

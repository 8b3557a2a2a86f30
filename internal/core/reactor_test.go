package core

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/driver"
	"repro/internal/ntb"
	"repro/internal/sim"
)

// Reactor census: a world's service threads, forwarders and DMA engines
// start on their first job, so the processes a run starts are exactly
// the ones its traffic reached, and a snapshot forks the same future
// whether or not the child world's reactors have started.

// reactorPrefixes name the product reactors' processes.
var reactorPrefixes = []string{"shmem-svc:", "shmem-fwd:", "dma-engine:"}

func isReactor(proc string) bool {
	for _, prefix := range reactorPrefixes {
		if strings.HasPrefix(proc, prefix) {
			return true
		}
	}
	return false
}

// reactorCensus runs body on w and returns the reactor processes the
// run dispatched, sorted. It also checks them against LiveProcs: with
// every application process finished, only started reactors are live.
func reactorCensus(t *testing.T, w *World, body func(p *sim.Proc, pe *PE)) []string {
	t.Helper()
	seen := map[string]bool{}
	w.Cluster.Sim.TraceDispatch(func(_ sim.Time, _ uint64, _ byte, proc string) {
		if isReactor(proc) {
			seen[proc] = true
		}
	})
	defer w.Cluster.Sim.TraceDispatch(nil)
	if err := w.RunKeep(body); err != nil {
		t.Fatal(err)
	}
	if live := w.Cluster.Sim.LiveProcs(); live != len(seen) {
		t.Errorf("%d live processes after the run, %d reactors dispatched", live, len(seen))
	}
	return slices.Sorted(maps.Keys(seen))
}

func TestBarrierOnlyWorldStartsNoReactor(t *testing.T) {
	w := newWorld(8, Options{})
	defer w.Cluster.ShutdownSim()
	got := reactorCensus(t, w, func(p *sim.Proc, pe *PE) { pe.BarrierAll(p) })
	if len(got) != 0 {
		t.Errorf("a barrier-only world started %v", got)
	}
}

func TestMemcpyScaleWorldStartsOnlyServiceThreads(t *testing.T) {
	const n = 16
	w := newWorld(n, Options{Mode: driver.ModeCPU})
	defer w.Cluster.ShutdownSim()
	got := reactorCensus(t, w, scaleBody(3, 4096))
	var want []string
	for i := 0; i < n; i++ {
		want = append(want, fmt.Sprintf("shmem-svc:%d", i))
	}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("the memcpy scaling world started %v, want only the %d service threads", got, n)
	}
}

func TestDMAGetStartsTheEnginesItsChunksCrossed(t *testing.T) {
	// PE 0 gets 64 KiB from PE 2: the request relays through host 1
	// and the reply crosses one cable back, so some adapters move data
	// by DMA and others never do.
	w := newWorld(3, Options{})
	defer w.Cluster.ShutdownSim()
	dma := map[string]bool{}
	for _, h := range w.Cluster.Hosts {
		for _, port := range []*ntb.Port{h.Left, h.Right} {
			port.SetTrace(func(ev ntb.TraceEvent) {
				if ev.Cat == "dma" {
					dma["dma-engine:"+ev.Port] = true
				}
			})
		}
	}
	got := reactorCensus(t, w, func(p *sim.Proc, pe *PE) {
		const size = 64 << 10
		sym := pe.MustMalloc(p, size)
		pe.BarrierAll(p)
		if pe.ID() == 0 {
			pe.GetBytes(p, 2, sym, make([]byte, size))
		}
		pe.BarrierAll(p)
	})
	var engines []string
	for _, proc := range got {
		if strings.HasPrefix(proc, "dma-engine:") {
			engines = append(engines, proc)
		}
	}
	want := slices.Sorted(maps.Keys(dma))
	if len(want) == 0 || len(want) == 6 {
		t.Fatalf("the get moved data by DMA through %d of 6 adapters; the test needs some, not all", len(want))
	}
	if !slices.Equal(engines, want) {
		t.Errorf("started engines %v, adapters that moved data by DMA %v", engines, want)
	}
}

// dispatchRecorder attaches a dispatch trace to s and returns the
// recorded stream so far.
func dispatchRecorder(s *sim.Simulator) func() []string {
	var rec []string
	s.TraceDispatch(func(t sim.Time, seq uint64, kind byte, proc string) {
		rec = append(rec, fmt.Sprintf("%d %d %c %s", t, seq, kind, proc))
	})
	return func() []string { return rec }
}

func TestForkAcrossReactorStarts(t *testing.T) {
	// A snapshot records no reactor: whether the forked world's service
	// threads, forwarders and engines exist already (parked since an
	// earlier run) or start on their first job must not show in what the
	// fork runs. The reference is the captured world continuing in place.
	barrierOnly := func(p *sim.Proc, pe *PE) { pe.BarrierAll(p) }
	traffic := resetScript(31, 2, 6)
	for _, tc := range []struct {
		name   string
		prefix func(p *sim.Proc, pe *PE)
		child  func(t *testing.T) *World
	}{
		// Captured before any reactor existed, forked into a world whose
		// reactors an earlier run started.
		{"before-into-started", barrierOnly, func(t *testing.T) *World {
			w := newWorld(4, Options{})
			traceRun(t, w, resetScript(5, 3, 8))
			if w.Cluster.Sim.LiveProcs() == 0 {
				t.Fatal("the child's earlier run started no reactor")
			}
			return w
		}},
		// Captured after reactors started, forked into a fresh world
		// that has none.
		{"started-into-fresh", traffic, func(t *testing.T) *World { return newWorld(4, Options{}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := resetScript(67, 2, 5)
			ref := newWorld(4, Options{})
			defer ref.Cluster.ShutdownSim()
			traceRun(t, ref, tc.prefix)
			started := ref.Cluster.Sim.LiveProcs()
			snap := ref.Snapshot()
			refDispatch := dispatchRecorder(ref.Cluster.Sim)
			wantTrace, wantEnd, wantStats := traceRun(t, ref, body)

			child := tc.child(t)
			defer child.Cluster.ShutdownSim()
			if live := child.Cluster.Sim.LiveProcs(); (live == 0) == (started == 0) {
				t.Fatalf("child has %d live reactors, captured world %d: the case does not cross a reactor start", live, started)
			}
			child.Fork(snap)
			childDispatch := dispatchRecorder(child.Cluster.Sim)
			gotTrace, gotEnd, gotStats := traceRun(t, child, body)

			if gotEnd != wantEnd || gotStats != wantStats {
				t.Errorf("fork ended at %v with pe 0 stats %+v; continuation %v, %+v", gotEnd, gotStats, wantEnd, wantStats)
			}
			compareTraces(t, "fork vs continuation", gotTrace, wantTrace)
			if got, want := childDispatch(), refDispatch(); !slices.Equal(got, want) {
				t.Errorf("fork dispatched %d events, continuation %d, and the streams differ", len(got), len(want))
			}
		})
	}
}

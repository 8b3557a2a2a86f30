package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/sim"
)

// A pooled world's application processes run on the coroutines its
// previous run's processes finished on; these tests hold that at the
// world level, where the bench pool relies on it.

// TestResetWorldReusesCoroutines: after Reset, a world's next run spawns
// its PE processes without starting a goroutine, and each still runs as
// "pe:<id>". The goroutine count may fall during a run (another test's
// goroutine exiting late) but must not rise.
func TestResetWorldReusesCoroutines(t *testing.T) {
	const n = 8
	w := newWorld(n, Options{})
	defer w.Cluster.ShutdownSim()
	names := make([]string, n)
	body := func(p *sim.Proc, pe *PE) {
		names[pe.ID()] = p.Name()
		pe.BarrierAll(p)
	}
	if err := w.RunKeep(body); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for cycle := 0; cycle < 3; cycle++ {
		w.Reset()
		clear(names)
		if err := w.RunKeep(body); err != nil {
			t.Fatal(err)
		}
		if got := runtime.NumGoroutine(); got > before {
			t.Fatalf("cycle %d: goroutines %d -> %d across a recycled run", cycle, before, got)
		}
		for id, name := range names {
			if want := fmt.Sprintf("pe:%d", id); name != want {
				t.Fatalf("cycle %d: PE %d ran as %q, want %q", cycle, id, name, want)
			}
		}
	}
}

// TestShutdownReleasesRecycledWorlds: a world that ran, reset and ran
// again releases its daemons' and its idle coroutines' goroutines on
// ShutdownSim.
func TestShutdownReleasesRecycledWorlds(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		w := newWorld(4, Options{})
		for run := 0; run < 2; run++ {
			if run > 0 {
				w.Reset()
			}
			if err := w.RunKeep(func(p *sim.Proc, pe *PE) { pe.BarrierAll(p) }); err != nil {
				t.Fatal(err)
			}
		}
		w.Cluster.ShutdownSim()
	}
	for i := 0; i < 100 && runtime.NumGoroutine() > before+10; i++ {
		runtime.Gosched()
	}
	if after := runtime.NumGoroutine(); after > before+10 {
		t.Fatalf("goroutines leaked across world shutdowns: %d -> %d", before, after)
	}
}

// TestGoexitOnRecycledWorldFailsIt: a PE body that calls runtime.Goexit
// on a reset world fails that world under its own process name, ends the
// caller of the run, and leaves a world ShutdownSim still tears down.
func TestGoexitOnRecycledWorldFailsIt(t *testing.T) {
	w := newWorld(3, Options{})
	if err := w.RunKeep(func(p *sim.Proc, pe *PE) {}); err != nil {
		t.Fatal(err)
	}
	w.Reset()
	ended := make(chan struct{})
	go func() {
		defer close(ended)
		w.RunKeep(func(p *sim.Proc, pe *PE) { //nolint:errcheck — must not return at all
			if pe.ID() == 1 {
				runtime.Goexit()
			}
			pe.BarrierAll(p)
		})
		t.Error("RunKeep returned to a caller that Goexit should have ended")
	}()
	<-ended
	if err := w.Cluster.RunSim(); err == nil || !strings.Contains(err.Error(), `"pe:1" called runtime.Goexit`) {
		t.Fatalf("RunSim returned %v; want pe:1's recorded Goexit", err)
	}
	w.Cluster.ShutdownSim()
	if n := w.Cluster.Sim.LiveProcs(); n != 0 {
		t.Fatalf("%d processes live after ShutdownSim", n)
	}
}

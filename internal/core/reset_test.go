package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sim"
)

// These tests pin the invariant World.Reset is built on: a reset world
// replays any body with an event trace identical to a freshly
// constructed world's. The bench world pool recycles worlds on the
// strength of this property; if it ever breaks, pooled runs would
// silently drift from the published CSVs.

// resetScript returns a deterministic randomized put/get/AMO/barrier
// workload. Each PE derives its own op stream from the seed and its Id,
// and every PE executes the same number of barriers, so the script is
// collective-safe and replayable.
func resetScript(seed int64, rounds, opsPerRound int) func(p *sim.Proc, pe *PE) {
	return func(p *sim.Proc, pe *PE) {
		n := pe.NumPEs()
		rng := rand.New(rand.NewSource(seed + int64(pe.ID())*7919))
		sym := pe.MustMalloc(p, 4096)
		ctr := pe.MustMalloc(p, 8)
		buf := make([]byte, 1024)
		pe.BarrierAll(p)
		for r := 0; r < rounds; r++ {
			for o := 0; o < opsPerRound; o++ {
				tgt := rng.Intn(n)
				size := 64 + rng.Intn(len(buf)-64)
				switch rng.Intn(3) {
				case 0:
					for i := range buf[:size] {
						buf[i] = byte(rng.Intn(256))
					}
					pe.PutBytes(p, tgt, sym, buf[:size])
				case 1:
					pe.GetBytes(p, tgt, sym, buf[:size])
				default:
					pe.AddInt64(p, tgt, ctr, int64(rng.Intn(100)))
				}
			}
			pe.BarrierAll(p)
		}
	}
}

// traceRun executes body on w via RunKeep with the op trace attached and
// returns the captured events, the final virtual time, and PE 0's stats.
// The world is left resettable (daemons parked, trace detached).
func traceRun(t *testing.T, w *World, body func(p *sim.Proc, pe *PE)) ([]OpEvent, sim.Time, Stats) {
	t.Helper()
	var trace []OpEvent
	w.SetOpTrace(func(ev OpEvent) { trace = append(trace, ev) })
	if err := w.RunKeep(body); err != nil {
		t.Fatal(err)
	}
	w.SetOpTrace(nil)
	return trace, w.Cluster.Sim.Now(), w.PEs()[0].Stats()
}

func TestResetEquivalentToFreshWorld(t *testing.T) {
	// Reset is Fork onto the image recorded when construction ended, and
	// same-shaped worlds record interchangeable images; all three ways
	// back to t0 must be indistinguishable from a fresh world.
	rewinds := []struct {
		name   string
		rewind func(w *World, opts Options)
	}{
		{"reset", func(w *World, _ Options) { w.Reset() }},
		{"fork-genesis", func(w *World, _ Options) { w.Fork(w.genesis) }},
		{"fork-foreign-genesis", func(w *World, opts Options) {
			other := newWorld(4, opts)
			defer other.Cluster.Sim.Shutdown()
			w.Fork(other.genesis)
		}},
	}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"pipelined-shortest", Options{Pipeline: 4, Routing: RouteShortest}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first := resetScript(17, 3, 6)
			second := resetScript(42, 4, 5)

			// Reference: the second workload on a fresh world.
			fresh := newWorld(4, tc.opts)
			wantTrace, wantEnd, wantStats := traceRun(t, fresh, second)
			fresh.Cluster.Sim.Shutdown()

			for _, rw := range rewinds {
				// Recycled world: run one workload, rewind, run another.
				recycled := newWorld(4, tc.opts)
				traceRun(t, recycled, first)
				rw.rewind(recycled, tc.opts)
				if now := recycled.Cluster.Sim.Now(); now != 0 {
					t.Fatalf("%s: rewound world starts at t=%v, want 0", rw.name, now)
				}
				gotTrace, gotEnd, gotStats := traceRun(t, recycled, second)
				recycled.Cluster.Sim.Shutdown()

				if gotEnd != wantEnd {
					t.Errorf("%s: completion time: rewound world %v, fresh world %v", rw.name, gotEnd, wantEnd)
				}
				if gotStats != wantStats {
					t.Errorf("%s: pe 0 stats: rewound world %+v, fresh world %+v", rw.name, gotStats, wantStats)
				}
				if len(gotTrace) != len(wantTrace) {
					t.Fatalf("%s: trace length: rewound world %d events, fresh world %d", rw.name, len(gotTrace), len(wantTrace))
				}
				for i := range gotTrace {
					if gotTrace[i] != wantTrace[i] {
						t.Fatalf("%s: trace diverges at event %d:\n  rewound: %+v\n  fresh:   %+v", rw.name, i, gotTrace[i], wantTrace[i])
					}
				}
			}
		})
	}
}

func TestResetRepeatedRecycling(t *testing.T) {
	// The same body replayed on one world must give the identical trace
	// every cycle, including the virtual-event count and the kernel's
	// dispatch stream. A fresh world's first run is no exception: its
	// service threads, forwarders and DMA engines start on their first
	// job in every run, so it dispatches exactly what a recycled run does.
	body := resetScript(7, 2, 8)
	w := newWorld(3, Options{})
	defer w.Cluster.Sim.Shutdown()
	dispatched := dispatchRecorder(w.Cluster.Sim)

	ref, refEnd, refStats := traceRun(t, w, body)
	freshEvents := w.Cluster.Sim.EventsExecuted()
	freshDispatch := dispatched()
	for cycle := 0; cycle < 3; cycle++ {
		w.Reset()
		if got := w.Cluster.Sim.EventsExecuted(); got != 0 {
			t.Fatalf("cycle %d: EventsExecuted = %d after Reset, want 0", cycle, got)
		}
		before := len(dispatched())
		trace, end, stats := traceRun(t, w, body)
		if end != refEnd || stats != refStats {
			t.Fatalf("cycle %d: end %v stats %+v, want %v %+v", cycle, end, stats, refEnd, refStats)
		}
		if events := w.Cluster.Sim.EventsExecuted(); events != freshEvents {
			t.Fatalf("cycle %d: %d virtual events, fresh run %d", cycle, events, freshEvents)
		}
		if dispatch := dispatched()[before:]; !slices.Equal(dispatch, freshDispatch) {
			t.Fatalf("cycle %d: dispatch stream differs from the fresh run's (%d vs %d events)", cycle, len(dispatch), len(freshDispatch))
		}
		if len(trace) != len(ref) {
			t.Fatalf("cycle %d: %d events, want %d", cycle, len(trace), len(ref))
		}
		for i := range trace {
			if trace[i] != ref[i] {
				t.Fatalf("cycle %d: trace diverges at event %d: %+v vs %+v", cycle, i, trace[i], ref[i])
			}
		}
	}
}

func TestResetZeroesSymmetricHeap(t *testing.T) {
	// A recycled world must hand out fresh-zero memory: AppMatmul-style
	// signal waits depend on malloc'd words starting at zero.
	w := newWorld(3, Options{})
	defer w.Cluster.Sim.Shutdown()

	dirty := func(p *sim.Proc, pe *PE) {
		sym := pe.MustMalloc(p, 256)
		pe.BarrierAll(p)
		buf := make([]byte, 256)
		for i := range buf {
			buf[i] = 0xAB
		}
		pe.PutBytes(p, (pe.ID()+1)%pe.NumPEs(), sym, buf)
		pe.BarrierAll(p)
	}
	if err := w.RunKeep(dirty); err != nil {
		t.Fatal(err)
	}
	w.Reset()

	var stale bool
	if err := w.RunKeep(func(p *sim.Proc, pe *PE) {
		sym := pe.MustMalloc(p, 256)
		pe.BarrierAll(p)
		got := make([]byte, 256)
		pe.GetBytes(p, pe.ID(), sym, got)
		for _, b := range got {
			if b != 0 {
				stale = true
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if stale {
		t.Fatal("recycled world handed out non-zero symmetric memory")
	}
}

func TestResetRejectsFailedWorld(t *testing.T) {
	// A world whose run ended in an error must not be resettable: wedged
	// state (here a mid-run global exit) fails the quiescence checks.
	w := newWorld(3, Options{})
	err := w.RunKeep(func(p *sim.Proc, pe *PE) {
		pe.BarrierAll(p)
		if pe.ID() == 1 {
			pe.GlobalExit(p, 3)
		}
		pe.BarrierAll(p)
	})
	if err == nil {
		t.Fatal("global exit did not surface an error")
	}
	defer w.Cluster.Sim.Shutdown()
	defer func() {
		if recover() == nil {
			t.Fatal("Reset accepted a world that exited mid-run")
		}
	}()
	w.Reset()
}

package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// The reference scheduler. A plain binary heap is the obviously correct
// (t, seq) priority queue; the ladder queue must be indistinguishable
// from it. eventHeap itself stays in production code as the ladder's
// sorted front, but only these tests ever run a whole simulator on it:
// the queue-level streams in ladder_test.go compare the two structures
// pop by pop, and the tests here compare whole kernels — processes,
// tickers, callbacks, queues — dispatch by dispatch.

// newHeapSim returns a simulator whose pending-event store is the
// reference heap instead of the ladder queue.
func newHeapSim() *Simulator {
	s := New()
	s.events = &eventHeap{items: make([]event, 0, 128)}
	return s
}

type dispatchRec struct {
	t    Time
	seq  uint64
	kind byte
	proc string
}

type countTicker struct{ fired *int }

func (c countTicker) Tick(uint64) { *c.fired++ }

// seededProgram spawns nProcs processes of steps seeded rounds on s.
// Sleeps mix zero (same-timestamp ties through the ready FIFO), short,
// and long horizons so events cross every queue tier; every fourth
// round also arms a Ticker or an After callback, and the processes pass
// tokens through a shared queue, so all three event kinds and the
// cross-process wake path are in the stream.
func seededProgram(s *Simulator, seed int64, nProcs, steps int) {
	q := NewQueue[int]("tokens")
	fired := new(int)
	for i := 0; i < nProcs; i++ {
		i := i
		rng := rand.New(rand.NewSource(seed + int64(i)*31))
		s.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			for step := 0; step < steps; step++ {
				var d Duration
				switch rng.Intn(4) {
				case 0:
					d = 0
				case 1:
					d = Duration(rng.Int63n(100))
				case 2:
					d = Duration(rng.Int63n(50_000))
				default:
					d = Duration(rng.Int63n(10_000_000))
				}
				p.Sleep(d)
				switch step % 4 {
				case 1:
					s.AfterTick(Duration(rng.Int63n(5_000)), countTicker{fired}, uint64(step))
				case 2:
					s.After(Duration(rng.Int63n(5_000)), func() { q.Push(i) })
				case 3:
					q.Pop(p)
				}
			}
		})
	}
}

// dispatchTrace runs the seeded program on s — twice, rewinding between
// the runs, when rerun is set — and returns the (last) dispatch stream.
func dispatchTrace(t *testing.T, s *Simulator, seed int64, rerun bool) []dispatchRec {
	t.Helper()
	var tr []dispatchRec
	s.TraceDispatch(func(at Time, seq uint64, kind byte, proc string) {
		tr = append(tr, dispatchRec{at, seq, kind, proc})
	})
	seededProgram(s, seed, 12, 400)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if rerun {
		s.Reset()
		tr = tr[:0]
		seededProgram(s, seed, 12, 400)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	s.Shutdown()
	return tr
}

func diffDispatch(t *testing.T, label string, want, got []dispatchRec) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d dispatches vs %d", label, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: dispatch %d diverged: %+v vs %+v", label, i, want[i], got[i])
		}
	}
}

// TestSchedulersDispatchIdentically is the whole-simulator differential:
// the same seeded program must produce the identical dispatch stream —
// time, sequence number, event kind and woken process — on the ladder
// queue and on the reference heap. internal/bench pins the ladder's
// stream to recorded digests (TestDispatchTraceGolden); together the two
// pin the heap's as well.
func TestSchedulersDispatchIdentically(t *testing.T) {
	for _, seed := range []int64{1, 7, 99} {
		heap := dispatchTrace(t, newHeapSim(), seed, false)
		ladder := dispatchTrace(t, New(), seed, false)
		if len(heap) < 12*400 {
			t.Fatalf("seed %d: only %d dispatches traced", seed, len(heap))
		}
		diffDispatch(t, fmt.Sprintf("seed %d ladder-vs-heap", seed), heap, ladder)
	}
}

// TestSchedulersRewindIdentically reruns the program on a rewound
// simulator of each kind: the second run's stream must equal a fresh
// run's, event for event.
func TestSchedulersRewindIdentically(t *testing.T) {
	for kind, newSim := range map[string]func() *Simulator{"ladder": New, "heap": newHeapSim} {
		fresh := dispatchTrace(t, newSim(), 42, false)
		rerun := dispatchTrace(t, newSim(), 42, true)
		diffDispatch(t, kind+" reset-rerun", fresh, rerun)
	}
}

package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fabric"
	"repro/internal/model"
	"repro/internal/sim"
)

func barrierAlgos() []BarrierAlgo {
	return []BarrierAlgo{BarrierRing, BarrierCentral, BarrierDissemination}
}

func TestBarrierSynchronises(t *testing.T) {
	// No PE may leave the barrier before the last PE enters it.
	for _, algo := range barrierAlgos() {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			for _, n := range []int{2, 3, 5, 8} {
				w := newWorld(n, Options{Barrier: algo})
				enter := make([]sim.Time, n)
				leave := make([]sim.Time, n)
				err := w.Run(func(p *sim.Proc, pe *PE) {
					// Stagger arrivals hard.
					p.Sleep(sim.Duration(pe.ID()) * 500 * sim.Microsecond)
					enter[pe.ID()] = p.Now()
					pe.BarrierAll(p)
					leave[pe.ID()] = p.Now()
				})
				if err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				var lastEnter sim.Time
				for _, e := range enter {
					if e > lastEnter {
						lastEnter = e
					}
				}
				for id, l := range leave {
					if l < lastEnter {
						t.Fatalf("n=%d: pe %d left barrier at %v before last entry %v",
							n, id, l, lastEnter)
					}
				}
			}
		})
	}
}

func TestBarrierRepeated(t *testing.T) {
	for _, algo := range barrierAlgos() {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			w := newWorld(3, Options{Barrier: algo})
			counters := make([]int, 3)
			err := w.Run(func(p *sim.Proc, pe *PE) {
				for round := 0; round < 10; round++ {
					// Unequal work between rounds.
					p.Sleep(sim.Duration((pe.ID()*7+round*3)%11) * 100 * sim.Microsecond)
					counters[pe.ID()]++
					pe.BarrierAll(p)
					// After the round-r barrier everyone has counted round
					// r; a fast PE may already have counted r+1 but can
					// never be further ahead (it would block in the next
					// barrier).
					for id, c := range counters {
						if c < round+1 || c > round+2 {
							t.Errorf("round %d: pe %d count %d out of [%d,%d]",
								round, id, c, round+1, round+2)
							return
						}
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBarrierFlushesMultiHopPuts(t *testing.T) {
	// The data-delivery guarantee: after BarrierAll returns, every put
	// issued before the barrier — including multi-hop ones still in
	// bypass buffers — is visible at its destination.
	for _, algo := range barrierAlgos() {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			f := func(seed int64) bool {
				const n = 5
				w := newWorld(n, Options{Barrier: algo})
				const sz = 20_000
				ok := true
				err := w.Run(func(p *sim.Proc, pe *PE) {
					rng := rand.New(rand.NewSource(seed + int64(pe.ID())))
					sym := pe.MustMalloc(p, sz*n)
					pe.BarrierAll(p)
					// Every PE puts a tagged block into every other PE's
					// slot — a storm of 1..4-hop transfers.
					for t := 0; t < n; t++ {
						if t == pe.ID() {
							continue
						}
						block := bytes.Repeat([]byte{byte(pe.ID()*16 + t)}, sz)
						if rng.Intn(2) == 0 {
							pe.PutBytes(p, t, sym+SymAddr(pe.ID()*sz), block)
						} else {
							pe.PutBytesNBI(p, t, sym+SymAddr(pe.ID()*sz), block)
						}
					}
					pe.BarrierAll(p)
					// Check every slot locally.
					buf := make([]byte, sz)
					for from := 0; from < n; from++ {
						if from == pe.ID() {
							continue
						}
						pe.LocalRead(p, sym+SymAddr(from*sz), buf)
						want := byte(from*16 + pe.ID())
						for _, b := range buf {
							if b != want {
								ok = false
								return
							}
						}
					}
				})
				return err == nil && ok
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRingBarrierLatencyIsMillisecondScale(t *testing.T) {
	// Fig 10 sanity: a 3-host ring barrier costs on the order of a
	// millisecond, dominated by the 2N doorbell+wake hops.
	w := newWorld(3, Options{})
	var d sim.Duration
	err := w.Run(func(p *sim.Proc, pe *PE) {
		pe.BarrierAll(p)
		start := p.Now()
		pe.BarrierAll(p)
		if pe.ID() == 0 {
			d = p.Now().Sub(start)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if d < 500*sim.Microsecond || d > 4000*sim.Microsecond {
		t.Fatalf("ring barrier latency %v outside the paper's regime", d)
	}
}

func TestSyncAllCheaperThanBarrierAll(t *testing.T) {
	w := newWorld(3, Options{})
	var sync, barrier sim.Duration
	err := w.Run(func(p *sim.Proc, pe *PE) {
		pe.BarrierAll(p)
		start := p.Now()
		pe.SyncAll(p)
		if pe.ID() == 0 {
			sync = p.Now().Sub(start)
		}
		pe.BarrierAll(p)
		start = p.Now()
		pe.BarrierAll(p)
		if pe.ID() == 0 {
			barrier = p.Now().Sub(start)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if sync > barrier {
		t.Fatalf("SyncAll (%v) should not exceed BarrierAll (%v)", sync, barrier)
	}
}

func TestBarrierScalingWithRingSize(t *testing.T) {
	// Ring barrier cost grows linearly in N (2N hops).
	lat := func(n int) sim.Duration {
		w := newWorld(n, Options{})
		var d sim.Duration
		err := w.Run(func(p *sim.Proc, pe *PE) {
			pe.BarrierAll(p)
			start := p.Now()
			pe.BarrierAll(p)
			if pe.ID() == 0 {
				d = p.Now().Sub(start)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	l3, l6 := lat(3), lat(6)
	ratio := float64(l6) / float64(l3)
	if ratio < 1.6 || ratio > 2.4 {
		t.Fatalf("barrier should scale ~linearly: n=3 %v, n=6 %v (ratio %.2f)", l3, l6, ratio)
	}
}

func TestBarrierAlgorithmsAllCompleteLargeRing(t *testing.T) {
	for _, algo := range barrierAlgos() {
		for _, n := range []int{2, 3, 7} {
			w := newWorld(n, Options{Barrier: algo})
			rounds := 0
			err := w.Run(func(p *sim.Proc, pe *PE) {
				for i := 0; i < 5; i++ {
					pe.BarrierAll(p)
				}
				if pe.ID() == 0 {
					rounds = int(pe.Stats().Barriers)
				}
			})
			if err != nil {
				t.Fatalf("%v n=%d: %v", algo, n, err)
			}
			// init barrier + 5 explicit ones
			if rounds != 6 {
				t.Fatalf("%v n=%d: %d barriers recorded", algo, n, rounds)
			}
		}
	}
}

func TestBarrierStatsName(t *testing.T) {
	for algo, want := range map[BarrierAlgo]string{
		BarrierRing:          "ring",
		BarrierCentral:       "central",
		BarrierDissemination: "dissemination",
	} {
		if got := algo.String(); got != want {
			t.Errorf("BarrierAlgo(%d).String() = %q, want %q", int(algo), got, want)
		}
	}
	if fmt.Sprint(CmpGE) != ">=" {
		t.Errorf("CmpGE prints %v", CmpGE)
	}
}

func TestBarrierDeliversUnderSlowService(t *testing.T) {
	// BarrierAll's delivery guarantee must not depend on how quickly a
	// service thread wakes: a doorbell handed to a waking service thread
	// sits in neither its queue nor its active flag until the wake-up
	// sleep ends, and the barrier's drain must still not overtake it.
	const n, sz = 3, 40_000
	for _, pipeline := range []int{0, 4} {
		for _, wakeUs := range []float64{70, 400, 1000} {
			for _, target := range []int{1, 2} {
				name := fmt.Sprintf("pipeline=%d/wake=%gus/hops=%d", pipeline, wakeUs, target)
				t.Run(name, func(t *testing.T) {
					par := model.Default()
					par.ServiceWake = sim.Microseconds(wakeUs)
					c, err := fabric.NewRing(sim.New(), par, n)
					if err != nil {
						t.Fatal(err)
					}
					w := NewWorld(c, Options{Pipeline: pipeline})
					block := bytes.Repeat([]byte{0x5A}, sz)
					var got []byte
					err = w.Run(func(p *sim.Proc, pe *PE) {
						sym := pe.MustMalloc(p, sz)
						pe.BarrierAll(p)
						if pe.ID() == 0 {
							pe.PutBytes(p, target, sym, block)
						}
						pe.BarrierAll(p)
						if pe.ID() == target {
							got = make([]byte, sz)
							pe.LocalRead(p, sym, got)
						}
					})
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, block) {
						t.Fatalf("target heap after the barrier does not hold PE 0's put")
					}
				})
			}
		}
	}
}

package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/driver"
	"repro/internal/sim"
)

// Differential testing: random SPMD programs executed on the simulated
// runtime and on a trivial sequential reference model, then compared.
//
// Program shape (per round):
//
//	write phase — every PE puts a round-tagged pattern into its own slot
//	of randomly chosen targets (blocking or NBI), and fires random
//	fetch-adds at per-host counters;
//	barrier;
//	read phase — every PE gets random slots and fetches counters, and
//	checks them against the reference;
//	barrier.
//
// Slot ownership (PE p only ever writes slot p) makes the reference
// model race-free, and fetch-add commutes, so the reference is exact.

type refModel struct {
	n        int
	slotSize int
	slots    [][]byte // slots[target*n+owner]
	counters []int64  // one per target
}

func newRefModel(n, slotSize int) *refModel {
	m := &refModel{n: n, slotSize: slotSize, counters: make([]int64, n)}
	m.slots = make([][]byte, n*n)
	for i := range m.slots {
		m.slots[i] = make([]byte, slotSize)
	}
	return m
}

func (m *refModel) put(target, owner int, tag byte) {
	for i := range m.slots[target*m.n+owner] {
		m.slots[target*m.n+owner][i] = tag
	}
}

// roundPlan is one PE's scripted actions for one round.
type roundPlan struct {
	putTargets []int // targets receiving this PE's slot pattern
	nbi        bool  // use the non-blocking put variant
	addTarget  int   // counter host for the fetch-add (-1: none)
	addDelta   int64
	getTarget  int // slot read in the read phase (-1: none)
	getOwner   int
	ctrTarget  int // counter read in the read phase (-1: none)
}

func buildPlans(rng *rand.Rand, n, rounds int) [][]roundPlan {
	plans := make([][]roundPlan, n)
	for p := 0; p < n; p++ {
		plans[p] = make([]roundPlan, rounds)
		for r := 0; r < rounds; r++ {
			plan := &plans[p][r]
			for t := 0; t < n; t++ {
				if t != p && rng.Intn(2) == 0 {
					plan.putTargets = append(plan.putTargets, t)
				}
			}
			plan.nbi = rng.Intn(2) == 0
			plan.addTarget = -1
			if rng.Intn(2) == 0 {
				plan.addTarget = rng.Intn(n)
				plan.addDelta = int64(rng.Intn(100) - 50)
			}
			plan.getTarget = -1
			if rng.Intn(2) == 0 {
				plan.getTarget = rng.Intn(n)
				plan.getOwner = rng.Intn(n)
			}
			plan.ctrTarget = -1
			if rng.Intn(3) == 0 {
				plan.ctrTarget = rng.Intn(n)
			}
		}
	}
	return plans
}

func tagFor(round, owner int) byte { return byte(round*31+owner*7) | 1 }

func runDifferential(t *testing.T, seed int64, opts Options, n, rounds, slotSize int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	plans := buildPlans(rng, n, rounds)

	// Sequential reference execution.
	ref := newRefModel(n, slotSize)
	type snapshot struct {
		slots    [][]byte
		counters []int64
	}
	snaps := make([]snapshot, rounds)
	for r := 0; r < rounds; r++ {
		for p := 0; p < n; p++ {
			plan := plans[p][r]
			for _, tgt := range plan.putTargets {
				ref.put(tgt, p, tagFor(r, p))
			}
			if plan.addTarget >= 0 {
				ref.counters[plan.addTarget] += plan.addDelta
			}
		}
		s := snapshot{counters: append([]int64(nil), ref.counters...)}
		for _, sl := range ref.slots {
			s.slots = append(s.slots, append([]byte(nil), sl...))
		}
		snaps[r] = s
	}

	// Simulated execution.
	w := newWorldOpts(n, opts)
	var failures []string
	err := w.Run(func(p *sim.Proc, pe *PE) {
		me := pe.ID()
		slots := pe.MustMalloc(p, n*slotSize)
		counter := pe.MustMalloc(p, 8)
		pe.BarrierAll(p)

		mySlotPattern := make([]byte, slotSize)
		for r := 0; r < rounds; r++ {
			plan := plans[me][r]
			for i := range mySlotPattern {
				mySlotPattern[i] = tagFor(r, me)
			}
			for _, tgt := range plan.putTargets {
				dst := slots + SymAddr(me*slotSize)
				if plan.nbi {
					pe.PutBytesNBI(p, tgt, dst, mySlotPattern)
				} else {
					pe.PutBytes(p, tgt, dst, mySlotPattern)
				}
			}
			if plan.addTarget >= 0 {
				pe.FetchAddInt64(p, plan.addTarget, counter, plan.addDelta)
			}
			pe.BarrierAll(p)

			if plan.getTarget >= 0 {
				got := make([]byte, slotSize)
				pe.GetBytes(p, plan.getTarget, slots+SymAddr(plan.getOwner*slotSize), got)
				want := snaps[r].slots[plan.getTarget*n+plan.getOwner]
				if !bytes.Equal(got, want) {
					failures = append(failures, fmt.Sprintf(
						"round %d: pe %d get slot(%d,%d) = %d..., want %d...",
						r, me, plan.getTarget, plan.getOwner, got[0], want[0]))
				}
			}
			if plan.ctrTarget >= 0 {
				got := pe.FetchInt64(p, plan.ctrTarget, counter)
				if want := snaps[r].counters[plan.ctrTarget]; got != want {
					failures = append(failures, fmt.Sprintf(
						"round %d: pe %d counter[%d] = %d, want %d",
						r, me, plan.ctrTarget, got, want))
				}
			}
			pe.BarrierAll(p)
		}
	})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	for _, f := range failures {
		t.Errorf("seed %d: %s", seed, f)
	}
}

func TestDifferentialRandomPrograms(t *testing.T) {
	configs := []struct {
		name string
		opts Options
	}{
		{"dma-rightward-ring", Options{}},
		{"memcpy-rightward-ring", Options{Mode: driver.ModeCPU}},
		{"dma-shortest-ring", Options{Routing: RouteShortest}},
		{"dma-rightward-central", Options{Barrier: BarrierCentral}},
		{"dma-rightward-dissemination", Options{Barrier: BarrierDissemination}},
		{"dma-pipelined-ring", Options{Pipeline: 4}},
		{"memcpy-pipelined-ring", Options{Mode: driver.ModeCPU, Pipeline: 2}},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				n := 3 + int(seed)%3 // 3..5 hosts
				runDifferential(t, seed, cfg.opts, n, 4, 3000)
			}
		})
	}
}

func TestDifferentialLargeRing(t *testing.T) {
	if testing.Short() {
		t.Skip("large differential run in -short mode")
	}
	runDifferential(t, 99, Options{}, 8, 5, 2000)
	runDifferential(t, 100, Options{Routing: RouteShortest}, 8, 5, 2000)
}

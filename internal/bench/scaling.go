package bench

import (
	"strconv"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/sim"
)

// The ring-scaling axis. The paper's testbed stops at three hosts; this
// sweep drives the same runtime at 3 → 1024 PEs to measure how the
// simulator itself scales (events/s, worlds/s) as the world grows. The
// workload here is deterministic and wall-clock free — host-side timing
// lives in the cmd layer (`reproduce scale`), where wall-clock reads are
// allowed.

// scaleRounds is how many neighbour puts each PE issues per world. More
// than one round keeps the put phase between the two barriers a
// meaningful fraction of the run, so the sweep measures link service
// loops as well as barrier hops.
const scaleRounds = 3

// ScaleWorkloadTime runs one n-PE ring world through the pool: every PE
// allocates a symmetric block, barriers, puts putBytes to its right
// neighbour scaleRounds times (one hop under the paper's rightward
// routing, so total traffic grows linearly with n), and barriers again.
// The world runs in the paper's memcpy mode. The repository benchmark's
// ring256 workload pins this program's outcome at 256 PEs (280 267.167 µs
// after 24 576 events), so the mode and scaleRounds are fixed. The
// world's virtual events and world count accrue to the package tallies,
// which the cmd layer samples around calls to compute events/s. It
// returns PE 0's final virtual time — the determinism witness
// `reproduce scale` prints.
func ScaleWorkloadTime(par *model.Params, n, putBytes int) sim.Time {
	var end sim.Time
	label := "scale/n=" + strconv.Itoa(n)
	runRingWorld(label, par, n, core.Options{Mode: driver.ModeCPU}, scaleBody(putBytes, &end))
	return end
}

// scaleBody is the scaling workload's per-PE program; PE 0 records its
// final virtual time in *end. Every PE puts from the read-only zero
// source.
func scaleBody(putBytes int, end *sim.Time) func(p *sim.Proc, pe *core.PE) {
	buf := mem.Zeros(putBytes)
	return func(p *sim.Proc, pe *core.PE) {
		sym := pe.MustMalloc(p, putBytes)
		pe.BarrierAll(p)
		for r := 0; r < scaleRounds; r++ {
			pe.PutBytes(p, (pe.ID()+1)%pe.NumPEs(), sym, buf)
		}
		pe.BarrierAll(p)
		if pe.ID() == 0 {
			*end = p.Now()
		}
	}
}

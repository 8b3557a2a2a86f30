package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/model"
	"repro/internal/sim"
)

// Extension figure E6: the same OpenSHMEM workload measured over every
// fabric backend. One runtime, three interconnect models — the paper's
// switchless NTB ring, a PCIe switch with true peer-to-peer paths
// sharing one switch core, and a CXL.mem-style mapped window — so the
// figure isolates what the interconnect itself costs: the ring pays
// store-and-forward hops, the switch pays core contention, CXL pays
// neither but serialises on the target's home agent.

// crossFabricHosts is the cluster size of the E6 sweep: large enough
// that the ring has a multi-hop transfer and the switch has contending
// pairs, small enough that every backend supports it.
const crossFabricHosts = 4

// crossFabricReps averages each point over this many put rounds.
const crossFabricReps = 5

// MeasureCrossFabricPut runs the E6 workload on the currently selected
// fabric backend (see SetFabric): every PE simultaneously puts size
// bytes to its right neighbour, reps rounds, all n hosts sending at
// once. It returns the per-PE put throughput in MB/s observed at PE 0.
// With every host transmitting, the fabrics diverge exactly where their
// models differ: ring cables each carry two flows, the switch core
// carries all of them, and the CXL window serialises writes per target.
func MeasureCrossFabricPut(par *model.Params, n, size, reps int) float64 {
	var mbps float64
	label := fmt.Sprintf("crossfabric %s/n=%d/size=%d", Fabric(), n, size)
	buf := make([]byte, size) // read-only source shared by every PE
	runRingWorld(label, par, n, core.Options{}, func(p *sim.Proc, pe *core.PE) {
		sym := pe.MustMalloc(p, size)
		pe.BarrierAll(p)
		start := p.Now()
		for r := 0; r < reps; r++ {
			pe.PutBytes(p, (pe.ID()+1)%pe.NumPEs(), sym, buf)
		}
		if pe.ID() == 0 {
			us := p.Now().Sub(start).Microseconds()
			mbps = MBps(int64(reps)*int64(size), int64(us*1e3))
		}
		pe.BarrierAll(p)
	})
	return mbps
}

// RunCrossFabric produces extension figure E6: neighbour-put throughput
// under full contention, by request size, one series per fabric backend.
// Kinds are swept serially (the backend selector is process-global);
// sizes within a kind fan across workers as usual. The two-host pair
// fabric, if requested, runs at its only legal size and is labelled so.
func RunCrossFabric(par *model.Params, kinds []fabric.Kind) *Figure {
	f := &Figure{
		ID:     "E6",
		Title:  "OpenSHMEM put throughput per PE by fabric backend (all hosts sending, DMA)",
		XLabel: "Request Size",
		Unit:   "MB/s",
	}
	sizes := Sizes()
	prev := Fabric()
	defer SetFabric(prev)
	for _, k := range kinds {
		n, label := crossFabricHosts, k.String()
		if k == fabric.KindNTBPair {
			n, label = 2, "ntb-pair (2 hosts)"
		}
		SetFabric(k)
		vals := runPointsCost(sizes, func(_ int, size int) float64 {
			return float64(size)
		}, func(size int) float64 {
			return MeasureCrossFabricPut(par, n, size, crossFabricReps)
		})
		s := Series{Label: label}
		for i, size := range sizes {
			s.Points = append(s.Points, Point{size, vals[i]})
		}
		f.Series = append(f.Series, s)
	}
	return f
}

// Package ntbshmem is an OpenSHMEM programming model over a switchless
// PCIe Non-Transparent Bridge (NTB) interconnect, reproducing Lim, Park
// and Cha, "Developing an OpenSHMEM model over a Switchless PCIe
// Non-Transparent Bridge Interface" (IPDPSW 2019).
//
// Hosts are joined in a switchless ring by simulated PLX PEX 87xx-class
// NTB adapters; the runtime implements the paper's OpenSHMEM library on
// top: symmetric heap, one-sided Put/Get over the NTB memory windows
// (DMA or memcpy), scratchpad information records, doorbell interrupts, a
// per-host service thread with bypass-buffer forwarding, and the
// two-round ring barrier. Everything executes on a deterministic
// discrete-event simulator, so latencies and throughputs are virtual-time
// measurements that reproduce the paper's figures on any machine.
//
// A minimal SPMD program:
//
//	cfg := ntbshmem.Config{Hosts: 3}
//	err := ntbshmem.Run(cfg, func(p *ntbshmem.Proc, pe *ntbshmem.PE) {
//		x := pe.MustMalloc(p, 8)               // symmetric int64
//		pe.BarrierAll(p)
//		if pe.ID() == 0 {
//			ntbshmem.PutScalar[int64](p, pe, 1, x, 42)
//		}
//		pe.BarrierAll(p)
//		if pe.ID() == 1 {
//			v := ntbshmem.GetScalar[int64](p, pe, 1, x) // self get
//			fmt.Println("pe1 sees", v)
//		}
//	})
package ntbshmem

import (
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/fabric"
	"repro/internal/model"
	"repro/internal/sim"
)

// Re-exported handle types. PE carries the whole OpenSHMEM API surface
// (Table I of the paper and the extensions); Proc is the caller's
// simulation process, threaded through every blocking call.
type (
	// PE is a processing element handle; see repro/internal/core.PE.
	PE = core.PE
	// Proc is the calling process within the simulation.
	Proc = sim.Proc
	// SymAddr is a symmetric-heap address, identical on every PE.
	SymAddr = core.SymAddr
	// Params is the platform timing/sizing profile.
	Params = model.Params
	// Mode selects DMA or memcpy data movement.
	Mode = driver.Mode
	// BarrierAlgo selects the barrier implementation.
	BarrierAlgo = core.BarrierAlgo
	// Routing selects the ring data-steering policy.
	Routing = core.Routing
	// FabricKind selects the interconnect backend.
	FabricKind = fabric.Kind
	// SignalOp selects how PutSignal updates its signal word.
	SignalOp = core.SignalOp
	// ReduceOp names a reduction operator.
	ReduceOp = core.ReduceOp
	// CmpOp is a wait-until comparison.
	CmpOp = core.CmpOp
	// AMOOp identifies an atomic operation (informational; the typed
	// atomic methods on PE are the public API).
	AMOOp = core.AMOOp
	// Stats carries per-PE activity counters.
	Stats = core.Stats
	// Time and Duration are virtual-time instants and spans.
	Time = sim.Time
	// Duration is a span of virtual time in nanoseconds.
	Duration = sim.Duration
)

// Data-movement modes (the paper's DMA vs memcpy axis).
const (
	ModeDMA = driver.ModeDMA
	ModeCPU = driver.ModeCPU
)

// Barrier algorithms.
const (
	BarrierRing          = core.BarrierRing
	BarrierCentral       = core.BarrierCentral
	BarrierDissemination = core.BarrierDissemination
)

// Routing policies.
const (
	RouteRightward = core.RouteRightward
	RouteShortest  = core.RouteShortest
)

// Fabric backends: the paper's switchless NTB ring (default), the
// two-host independent NTB pair, a modelled PCIe switch with true P2P
// routing, and a CXL.mem-style coherent mapped window.
const (
	FabricNTBRing    = fabric.KindNTBRing
	FabricNTBPair    = fabric.KindNTBPair
	FabricPCIeSwitch = fabric.KindPCIeSwitch
	FabricCXL        = fabric.KindCXL
)

// ParseFabric maps a -fabric flag value ("ntb-ring", "ntb-pair",
// "pcie-switch", "cxl", and aliases) to a FabricKind.
func ParseFabric(s string) (FabricKind, error) { return fabric.ParseKind(s) }

// Fabrics lists every backend, in flag-documentation order.
func Fabrics() []FabricKind { return fabric.Kinds() }

// Signal operations for PutSignal.
const (
	SignalSet = core.SignalSet
	SignalAdd = core.SignalAdd
)

// Reduction operators.
const (
	OpSum  = core.OpSum
	OpProd = core.OpProd
	OpMin  = core.OpMin
	OpMax  = core.OpMax
)

// Wait-until comparisons.
const (
	CmpEQ = core.CmpEQ
	CmpNE = core.CmpNE
	CmpGT = core.CmpGT
	CmpGE = core.CmpGE
	CmpLT = core.CmpLT
	CmpLE = core.CmpLE
)

// Scalar constrains the element types of the typed RMA operations.
type Scalar = core.Scalar

// ActiveSet is the classic SHMEM (PE_start, logPE_stride, PE_size)
// subset selector for the set-scoped collectives.
type ActiveSet = core.ActiveSet

// Heartbeat is a per-link liveness monitor (see Job.StartHeartbeats).
type Heartbeat = driver.Heartbeat

// Team is an OpenSHMEM 1.5 team handle (PE.TeamWorld,
// PE.TeamSplitStrided).
type Team = core.Team

// Ctx is an OpenSHMEM 1.4 communication context (PE.CtxCreate): an
// independent completion domain for non-blocking operations.
type Ctx = core.Ctx

// BarrierSyncWords is the required pSync size (8-byte words) for
// BarrierSet / BroadcastSet / ReduceSet work areas.
const BarrierSyncWords = core.BarrierSyncWords

// Two-sided messaging constants (the send/recv extension layered over
// the one-sided fabric).
const (
	// AnySource matches a Recv against every sender.
	AnySource = core.AnySource
	// RecvSlots is the per-PE limit on simultaneously posted receives.
	RecvSlots = core.RecvSlots
)

// DefaultParams returns the calibrated profile of the paper's testbed
// (PCIe Gen3 x8, PEX8749-class adapters, three Core-i7 hosts).
func DefaultParams() *Params { return model.Default() }

// Config describes an OpenSHMEM job.
type Config struct {
	// Hosts is the cluster size (one PE per host, as in the paper). Must
	// be at least 2; per-fabric limits apply (a pair is exactly 2).
	Hosts int
	// Fabric selects the interconnect backend (default: the paper's
	// switchless NTB ring).
	Fabric FabricKind
	// Mode selects DMA (default) or memcpy transfers.
	Mode Mode
	// Barrier selects the barrier algorithm (default: the paper's ring
	// start/end protocol).
	Barrier BarrierAlgo
	// Routing selects the data steering policy (default: the paper's
	// fixed rightward routing; RouteShortest takes the shorter arc).
	Routing Routing
	// Pipeline selects the link protocol: 0/1 is the paper's
	// stop-and-wait scratchpad protocol; n >= 2 enables the pipelined
	// header-in-window protocol with n credits per link direction.
	Pipeline int
	// Params overrides the platform profile; nil means DefaultParams.
	Params *Params
}

// Job is a constructed OpenSHMEM world plus its simulator, for callers
// that need to attach extra processes or inspect virtual time; most
// programs just call Run.
type Job struct {
	World   *core.World
	Cluster *fabric.Cluster
}

// NewJob builds the simulated cluster and OpenSHMEM world for cfg.
func NewJob(cfg Config) *Job {
	par := cfg.Params
	if par == nil {
		par = model.Default()
	}
	s := sim.New()
	cluster, err := fabric.New(fabric.Config{Sim: s, Par: par, Hosts: cfg.Hosts, Kind: cfg.Fabric})
	if err != nil {
		panic("ntbshmem: " + err.Error())
	}
	world := core.NewWorld(cluster, core.Options{
		Mode:     cfg.Mode,
		Barrier:  cfg.Barrier,
		Routing:  cfg.Routing,
		Pipeline: cfg.Pipeline,
	})
	return &Job{World: world, Cluster: cluster}
}

// Run executes body once per PE and drives the simulation to completion.
func (j *Job) Run(body func(p *Proc, pe *PE)) error {
	return j.World.Run(body)
}

// Now returns the current virtual time (after Run, the completion time).
func (j *Job) Now() Time { return j.Cluster.Sim.Now() }

// Run builds a job from cfg and executes body on every PE — the
// shmem_init → work → shmem_finalize lifecycle in one call.
func Run(cfg Config, body func(p *Proc, pe *PE)) error {
	return NewJob(cfg).Run(body)
}

// Typed one-sided operations (shmem_TYPE_put / get and friends),
// re-exported from the core runtime.

// Put copies src into target's symmetric object at dst (shmem_TYPE_put).
func Put[T Scalar](p *Proc, pe *PE, target int, dst SymAddr, src []T) {
	core.Put(p, pe, target, dst, src)
}

// Get copies target's symmetric object at src into dst (shmem_TYPE_get).
func Get[T Scalar](p *Proc, pe *PE, target int, src SymAddr, dst []T) {
	core.Get(p, pe, target, src, dst)
}

// PutScalar writes one element (shmem_TYPE_p).
func PutScalar[T Scalar](p *Proc, pe *PE, target int, dst SymAddr, v T) {
	core.PutScalar(p, pe, target, dst, v)
}

// GetScalar reads one element (shmem_TYPE_g).
func GetScalar[T Scalar](p *Proc, pe *PE, target int, src SymAddr) T {
	return core.GetScalar[T](p, pe, target, src)
}

// IPut is the strided put (shmem_TYPE_iput).
func IPut[T Scalar](p *Proc, pe *PE, target int, dst SymAddr, src []T, tst, sst, nelems int) {
	core.IPut(p, pe, target, dst, src, tst, sst, nelems)
}

// IGet is the strided get (shmem_TYPE_iget).
func IGet[T Scalar](p *Proc, pe *PE, target int, src SymAddr, dst []T, tst, sst, nelems int) {
	core.IGet(p, pe, target, src, dst, tst, sst, nelems)
}

// LocalPut initialises the PE's own copy of a symmetric object.
func LocalPut[T Scalar](p *Proc, pe *PE, dst SymAddr, src []T) {
	core.LocalPut(p, pe, dst, src)
}

// LocalGet reads the PE's own copy of a symmetric object.
func LocalGet[T Scalar](p *Proc, pe *PE, src SymAddr, dst []T) {
	core.LocalGet(p, pe, src, dst)
}

// Reduce element-wise combines every PE's vector at src into every PE's
// vector at dst (shmem_TYPE_OP_to_all).
func Reduce[T Scalar](p *Proc, pe *PE, op ReduceOp, dst, src SymAddr, nelems int) {
	core.Reduce[T](p, pe, op, dst, src, nelems)
}

// Collect concatenates variable-size contributions in PE order
// (shmem_collect).
func Collect[T Scalar](p *Proc, pe *PE, dst, src SymAddr, nelems int) {
	core.Collect[T](p, pe, dst, src, nelems)
}

// FCollect concatenates fixed-size typed contributions in PE order
// (shmem_fcollect).
func FCollect[T Scalar](p *Proc, pe *PE, dst, src SymAddr, nelems int) {
	core.FCollect[T](p, pe, dst, src, nelems)
}

// BroadcastSet is shmem_broadcast over an active set; pSync must be a
// symmetric area of BarrierSyncWords*8 bytes.
func BroadcastSet[T Scalar](p *Proc, pe *PE, as ActiveSet, root int, dst, src SymAddr, nelems int, pSync SymAddr) {
	core.BroadcastSet[T](p, pe, as, root, dst, src, nelems, pSync)
}

// ReduceSet is shmem_TYPE_OP_to_all over an active set; pWrk must hold
// Size*nelems elements and pSync BarrierSyncWords*8 bytes.
func ReduceSet[T Scalar](p *Proc, pe *PE, as ActiveSet, op ReduceOp, dst, src SymAddr, nelems int, pWrk, pSync SymAddr) {
	core.ReduceSet[T](p, pe, as, op, dst, src, nelems, pWrk, pSync)
}

// TeamBroadcast sends nelems elements from team rank root to every team
// member (shmem_broadcast over a team).
func TeamBroadcast[T Scalar](p *Proc, t *Team, root int, dst, src SymAddr, nelems int) {
	core.TeamBroadcast[T](p, t, root, dst, src, nelems)
}

// TeamReduce element-wise combines every team member's vector
// (shmem_TYPE_OP_reduce over a team).
func TeamReduce[T Scalar](p *Proc, t *Team, op ReduceOp, dst, src SymAddr, nelems int) {
	core.TeamReduce[T](p, t, op, dst, src, nelems)
}

// CutLink severs the cable between host i and host (i+1) mod Hosts, for
// failure-injection experiments; see the failover example. It returns
// an error on a fabric with no cable to cut (pcie-switch, cxl).
func (j *Job) CutLink(i int) error { return j.Cluster.Unplug(i) }

// StartHeartbeats installs the driver's link-liveness monitor on every
// cabled adapter. onDown runs once per endpoint that loses its peer,
// with the observing host Id and adapter side ("left"/"right").
// Heartbeats keep the virtual clock alive indefinitely; stop them (or
// use Job.Cluster.Sim.RunUntil) to let a run terminate.
func (j *Job) StartHeartbeats(interval Duration, missLimit int, onDown func(host int, side string)) []*Heartbeat {
	var hbs []*Heartbeat
	for _, h := range j.Cluster.Hosts {
		h := h
		if h.LeftEP != nil {
			hbs = append(hbs, driver.StartHeartbeat(j.Cluster.Sim, h.LeftEP, interval, missLimit,
				func() { onDown(h.ID, "left") }))
		}
		if h.RightEP != nil {
			hbs = append(hbs, driver.StartHeartbeat(j.Cluster.Sim, h.RightEP, interval, missLimit,
				func() { onDown(h.ID, "right") }))
		}
	}
	return hbs
}

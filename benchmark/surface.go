package main

// surface.go is the harness's whole view of the repository: the only
// file under benchmark/ that imports repro/internal/... (a unit test
// holds that). Every repo symbol the workloads and probes call is bound
// here to a local name, so a refactor that renames or removes one fails
// to compile in exactly this file and knows it owes the benchmark a
// follow-up change — which, by the choosing-metrics rule, is its own PR
// and re-measures the baseline.
//
// Methods are bound as method expressions: pePut(pe, p, …) is
// (*core.PE).PutBytes. The indirect call costs a few ns against ops of
// hundreds of µs.

import (
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/fabric"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/ntb"
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Types.
type (
	params      = model.Params
	figure      = bench.Figure
	simT        = sim.Simulator
	proc        = sim.Proc
	simTime     = sim.Time
	simDuration = sim.Duration
	intQueue    = sim.Queue[int]
	world       = core.World
	pe          = core.PE
	symAddr     = core.SymAddr
	opEvent     = core.OpEvent
	coreOpts    = core.Options
	cluster     = fabric.Cluster
	fabKind     = fabric.Kind
	fabCfg      = fabric.Config
	port        = ntb.Port
	dmaDesc     = ntb.Desc
	network     = pcie.Network
	endpoint    = driver.Endpoint
	drvInfo     = driver.Info
	payload     = driver.Payload
	sender      = driver.Sender
	heap        = mem.Heap
	recorder    = trace.Recorder
)

// Constants.
const (
	modeDMA     = driver.ModeDMA
	kindPut     = driver.KindPut
	vecPut      = driver.VecPut
	regionData  = ntb.RegionData
	kindRing    = fabric.KindNTBRing
	kindPair    = fabric.KindNTBPair
	kindSwitch  = fabric.KindPCIeSwitch
	kindCXL     = fabric.KindCXL
	opPut       = bench.OpPut
	opGet       = bench.OpGet
	microsecond = sim.Microsecond
)

// internal/model: the default platform profile and the fields of it the
// probes read.
var (
	defaultParams   = model.Default
	parPutChunk     = func(p *params) int { return p.PutChunk }
	parServiceWake  = func(p *params) simDuration { return p.ServiceWake }
	parRootComplex  = func(p *params) float64 { return p.RootComplexBW }
	parSymHeapShape = func(p *params) (chunk, max int) { return p.SymHeapChunk, p.SymHeapMax }
)

// internal/bench: the figure groups cmd/reproduce runs, in its order.
var figureGroups = []struct {
	name string
	run  func(*params) []*figure
}{
	{"fig8", bench.RunFig8},
	{"fig9", bench.RunFig9},
	{"fig10", one(bench.RunFig10)},
	{"e6", func(par *params) []*figure {
		return []*figure{bench.RunCrossFabric(par, []fabKind{kindRing, kindSwitch, kindCXL})}
	}},
	{"a1", one(bench.RunAblationBarrierAlgo)},
	{"a2", one(bench.RunAblationGetChunk)},
	{"a3", one(bench.RunAblationRingSize)},
	{"a4", one(bench.RunAblationRouting)},
	{"a5", one(bench.RunAblationBroadcast)},
	{"a6", one(bench.RunAblationPipeline)},
	{"a7", one(bench.RunAblationWakeCost)},
	{"e1", func(*params) []*figure { return []*figure{bench.RunGenerationComparison()} }},
	{"e2", one(bench.RunTwoSidedComparison)},
	{"e3", one(bench.RunAppKernels)},
	{"e5", one(bench.RunCollectiveLatency)},
}

// paperGroups counts the leading groups `reproduce -skip-ablations`
// keeps: the paper's own figures plus the cross-fabric run.
const paperGroups = 4

func one(f func(*params) *figure) func(*params) []*figure {
	return func(par *params) []*figure { return []*figure{f(par)} }
}

// internal/bench: policy, caches, counters and single points.
var (
	benchSetParallelism = bench.SetParallelism
	benchSetWorldPool   = bench.SetWorldPool
	benchSetWorldFork   = bench.SetWorldFork
	benchSetShards      = bench.SetShards
	benchSetFabric      = bench.SetFabric
	drainWorldPool      = bench.DrainWorldPool
	drainSnapshots      = bench.DrainSnapshots
	worldsSimulated     = bench.WorldsSimulated
	virtualEvents       = bench.VirtualEvents
	worldPoolStats      = bench.WorldPoolStats
	forkStats           = bench.ForkStats
	cowPagesCopied      = bench.CowPagesCopied
	checkFig9Shapes     = bench.CheckFig9Shapes
	csvFileName         = bench.CSVFileName
	scaleWorkloadTime   = bench.ScaleWorkloadTime
	forkProbePoint      = bench.ForkProbePoint
	fig8Independent     = bench.Fig8Independent
	measureShmemOp      = bench.MeasureShmemOp
	measureBarrierAfter = bench.MeasureBarrierAfterPut
	measureCrossFabric  = bench.MeasureCrossFabricPut
	figureCSV           = (*figure).CSV
	benchMBps           = bench.MBps
)

// internal/sim.
var (
	simNew         = sim.New
	simGo          = (*simT).Go
	simGoDaemon    = (*simT).GoDaemon
	simAfter       = (*simT).After
	simRun         = (*simT).Run
	simShutdown    = (*simT).Shutdown
	procSleep      = (*proc).Sleep
	procNow        = (*proc).Now
	newIntQueue    = sim.NewQueue[int]
	queuePush      = (*intQueue).Push
	queuePop       = (*intQueue).Pop
	timeMicros     = simTime.Microseconds
	simTimeFromNs  = func(ns int64) simTime { return simTime(ns) }
	simTimeSubNano = func(a, b simTime) int64 { return int64(a.Sub(b)) }
)

// internal/pcie.
var (
	pcieNewNetwork    = pcie.NewNetwork
	pcieNewServer     = pcie.NewServer
	pcieNewRoute      = (*network).NewRoute
	pcieTransferRoute = (*network).TransferRoute
)

// internal/ntb.
var (
	ntbNewPort        = ntb.NewPort
	ntbConnect        = ntb.Connect
	portSetISR        = (*port).SetISR
	portSetTrace      = (*port).SetTrace
	portPeerDBSet     = (*port).PeerDBSet
	portPeerSpadWr    = (*port).PeerSpadWrite
	portSpadRead      = (*port).SpadRead
	portCPUWrite      = (*port).CPUWrite
	portDMASubmitWait = func(pt *port, p *proc, d dmaDesc) { pt.DMA().SubmitWait(p, d) }
)

// internal/driver.
var (
	drvNewEndpoint  = driver.NewEndpoint
	drvNewTxChannel = driver.NewTxChannel
	drvNewPipeTx    = driver.NewPipeTx
	drvNewPipeRx    = driver.NewPipeRx
	drvReadInfo     = driver.ReadInfo
	drvAck          = driver.Ack
	epHandle        = (*endpoint).Handle
	senderSendChunk = sender.SendChunk
	pipeRxNext      = (*driver.PipeRx).Next
	pipeRxRelease   = (*driver.PipeRx).Release
)

// internal/mem.
var (
	memNewHeap   = mem.NewHeap
	heapAlloc    = (*heap).Alloc
	heapFree     = (*heap).Free
	heapWrite    = (*heap).Write
	heapSnapshot = (*heap).Snapshot
	heapFork     = (*heap).Fork
	heapReset    = (*heap).Reset
)

// internal/fabric.
var (
	fabricNew       = fabric.New
	clusterEvents   = (*cluster).EventsExecuted
	clusterShutdown = (*cluster).ShutdownSim
	worldCluster    = func(w *world) *cluster { return w.Cluster }
)

// internal/core.
var (
	coreNewWorld    = core.NewWorld
	worldRun        = (*world).Run
	worldRunKeep    = (*world).RunKeep
	worldReset      = (*world).Reset
	worldSnapshot   = (*world).Snapshot
	worldFork       = (*world).Fork
	worldPEs        = (*world).PEs
	worldSetOpTrace = (*world).SetOpTrace
	peID            = (*pe).ID
	peMalloc        = (*pe).MustMalloc
	pePut           = (*pe).PutBytes
	peGet           = (*pe).GetBytes
	peBarrier       = (*pe).BarrierAll
	peLocalWrite    = (*pe).LocalWrite
	peLocalRead     = (*pe).LocalRead
	peFetchAdd      = (*pe).FetchAddInt64
	peStats         = (*pe).Stats
)

// internal/trace.
var (
	traceNew    = trace.New
	traceAttach = (*recorder).Attach
	traceEvents = (*recorder).Events
	traceReset  = (*recorder).Reset
)

// figureCells returns a figure's id, unit and every cell value.
func figureCells(f *figure) (id, unit string, values []float64) {
	for _, s := range f.Series {
		for _, pt := range s.Points {
			values = append(values, pt.Value)
		}
	}
	return f.ID, f.Unit, values
}

// clusterPorts lists a ring or pair cluster's cabled NTB ports.
func clusterPorts(c *cluster) []*port {
	var out []*port
	for _, h := range c.Hosts {
		if h.Left != nil {
			out = append(out, h.Left)
		}
		if h.Right != nil {
			out = append(out, h.Right)
		}
	}
	return out
}

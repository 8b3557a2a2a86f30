// Package model centralises every timing and sizing parameter of the
// simulated PCIe NTB platform.
//
// The paper's testbed is three Core-i7 hosts joined in a switchless ring by
// PLX PEX 8733/8749 NTB adapters over PCIe Gen3 x8 cables. We reproduce it
// with a discrete-event model whose constants all live in this package, so
// calibration against the paper's figures is a single-file affair and every
// experiment states exactly which platform profile produced it.
package model

import (
	"fmt"

	"repro/internal/sim"
)

// Params describes one hardware/software platform profile. All bandwidths
// are bytes per second of virtual time; all latencies are virtual-time
// durations. The zero value is not meaningful; start from Default.
type Params struct {
	// ---- PCIe link ----

	// Gen is the PCIe generation (1, 2 or 3). It determines the per-lane
	// raw signalling rate and the line encoding overhead.
	Gen int
	// Lanes is the link width (the paper's cables carry eight lanes).
	Lanes int
	// MaxPayload is the maximum TLP payload in bytes. Together with the
	// per-TLP header overhead it sets the protocol efficiency of bulk
	// transfers.
	MaxPayload int
	// TLPOverhead is the per-TLP framing cost in bytes (sequence number,
	// header, LCRC, framing symbols).
	TLPOverhead int

	// LocalMMIO is the latency of a register access on the host's own
	// adapter (no link crossing).
	LocalMMIO sim.Duration
	// MMIOWrite is the latency of a posted register write crossing the
	// link (scratchpad writes, doorbell rings). Posted writes do not wait
	// for a completion.
	MMIOWrite sim.Duration
	// MMIORead is the round-trip latency of a register read crossing the
	// link (scratchpad reads are non-posted and must wait for the
	// completion TLP).
	MMIORead sim.Duration

	// ---- DMA engine (per NTB adapter) ----

	// DMAEngineBW is the sustained data rate of one adapter's DMA engine.
	// The PEX87xx engines saturate well below the Gen3 x8 wire rate; the
	// paper measures 20-30 Gb/s, so the engine — not the wire — is the
	// bottleneck of a single transfer.
	DMAEngineBW float64
	// DMASetup is the per-descriptor cost of programming the engine
	// (building the descriptor, ringing the engine, fetch latency).
	DMASetup sim.Duration
	// ChipsetSpread scales DMAEngineBW per ring link (indexed by the
	// sending host, cycling). The paper's testbed mixes PEX 8733 and
	// 8749 adapters and measures "20 Gbps to 30 Gbps ... according to
	// the PEX chipset and connection environment"; this models that
	// per-pair variation. Empty means all links run at DMAEngineBW.
	ChipsetSpread []float64

	// ---- CPU data movement ----

	// MemcpyBW is host-local DRAM-to-DRAM copy bandwidth.
	MemcpyBW float64
	// WindowWriteBW is CPU store bandwidth into a mapped NTB window
	// (write-combining mapped I/O; far below DRAM speed).
	WindowWriteBW float64
	// WindowReadBW is CPU load bandwidth from a mapped NTB window
	// (uncached reads over PCIe are dramatically slow; this asymmetry is
	// why the paper's library never reads bulk data through the window).
	WindowReadBW float64

	// ---- Host fabric ----

	// RootComplexBW is the aggregate PCIe bandwidth of one host's root
	// complex across both of its NTB adapters. When a host simultaneously
	// sources and sinks ring traffic the root complex is the shared
	// stage, producing the slight ring-vs-independent throughput drop of
	// Fig 8.
	RootComplexBW float64

	// ---- Interrupts and scheduling ----

	// InterruptLatency is doorbell MMIO arrival to interrupt-handler
	// entry on the peer host.
	InterruptLatency sim.Duration
	// ServiceWake is handler entry to the NTB service thread actually
	// running (the paper's Fig 5 thread sleeps between interrupts; this
	// is the kernel wake-up plus scheduling cost).
	ServiceWake sim.Duration
	// AppWake is handler entry to a blocked application thread running
	// (barrier waits block the application itself, which costs more than
	// waking the always-hot service thread).
	AppWake sim.Duration
	// ISRCost is the time spent inside the interrupt handler itself
	// (reading the doorbell status register, masking, acking).
	ISRCost sim.Duration

	// ---- Software constants ----

	// PutSoftware and GetSoftware are the per-call library overheads
	// (argument checks, offset translation, info-record marshalling).
	PutSoftware sim.Duration
	GetSoftware sim.Duration

	// ---- Protocol geometry ----

	// WindowSize is the per-direction NTB memory window in bytes, 4 KiB
	// to 1 GiB; a transfer larger than the window moves in window-sized
	// stages with a drain handshake between stages.
	WindowSize int
	// PutChunk is the stop-and-wait unit of the Put protocol: each chunk
	// is DMA'd (or CPU-copied) into the neighbour's window, announced via
	// scratchpads and doorbell, and the window is reused only after the
	// neighbour's ACK. Put latency is therefore per-chunk-cycle bound but
	// hop-insensitive (only the first hop is synchronous).
	PutChunk int
	// BypassChunk is the store-and-forward unit used when data must hop
	// through an intermediate host's bypass buffer.
	BypassChunk int
	// GetChunk is the stop-and-wait unit of the Get protocol: the
	// requester asks for one chunk, the owner pushes it, the requester
	// acknowledges, repeat. Gets are therefore round-trip-bound, which
	// is why the paper's Get is an order of magnitude slower than Put
	// and strongly hop-sensitive.
	GetChunk int
	// SymHeapChunk is the unit of on-demand symmetric-heap growth (the
	// paper concatenates fixed-size anonymous mmap regions into one
	// virtually contiguous heap). It sizes the virtual space only: like
	// an mmap'd region, a chunk takes host memory page by page as it is
	// written (internal/mem).
	SymHeapChunk int
	// SymHeapMax is the largest total symmetric heap a PE may grow to.
	SymHeapMax int

	// SpadCount is the number of 32-bit scratchpad registers per NTB
	// link (the PEX parts expose eight).
	SpadCount int
	// DoorbellBits is the number of doorbell interrupt bits (sixteen on
	// the PEX parts).
	DoorbellBits int

	// ---- Alternative fabrics ----

	// SwitchCoreBW is the aggregate bandwidth of the PCIe switch fabric's
	// core on the pcie-switch backend: every host pair's P2P traffic
	// shares this one stage, which is what distinguishes a switched
	// fabric's contention profile from the ring's per-cable wires.
	SwitchCoreBW float64
	// CXLWindowBW is the per-transfer data bandwidth of the CXL.mem
	// mapped window on the cxl backend (coherent load/store traffic
	// through the shared fabric).
	CXLWindowBW float64
	// CXLLatency is the fixed per-operation access latency of the CXL
	// window: the coherence round trip a store pays before its data
	// streams, far below a doorbell interrupt plus thread wake-up.
	CXLLatency sim.Duration
}

// Default returns the calibrated profile of the paper's testbed: PCIe Gen3
// x8 links, PEX8749-class DMA engines, Linux 4.16-era interrupt and thread
// wake costs. EXPERIMENTS.md records how this profile reproduces each
// figure.
func Default() *Params {
	return &Params{
		Gen:         3,
		Lanes:       8,
		MaxPayload:  256,
		TLPOverhead: 26,

		LocalMMIO: 120 * sim.Nanosecond,
		MMIOWrite: 300 * sim.Nanosecond,
		MMIORead:  1200 * sim.Nanosecond,

		DMAEngineBW: 2.90e9,
		DMASetup:    sim.Microseconds(3.0),
		// Link 0: two 8749s; link 1: 8749+8733; link 2: two 8733s.
		ChipsetSpread: []float64{1.00, 1.08, 0.88},

		MemcpyBW:      8.0e9,
		WindowWriteBW: 1.25e9,
		WindowReadBW:  0.085e9,

		RootComplexBW: 5.5e9,

		InterruptLatency: sim.Microseconds(2.0),
		ServiceWake:      sim.Microseconds(70),
		AppWake:          sim.Microseconds(180),
		ISRCost:          sim.Microseconds(1.5),

		PutSoftware: sim.Microseconds(1.2),
		GetSoftware: sim.Microseconds(1.5),

		WindowSize:   1 << 20, // 1 MiB
		PutChunk:     32 << 10,
		BypassChunk:  64 << 10,
		GetChunk:     16 << 10,
		SymHeapChunk: 4 << 20,
		SymHeapMax:   256 << 20,

		SpadCount:    8,
		DoorbellBits: 16,

		SwitchCoreBW: 10.0e9,
		CXLWindowBW:  11.0e9,
		CXLLatency:   600 * sim.Nanosecond,
	}
}

// perLaneGbps returns the raw per-lane signalling rate in gigatransfers
// per second for the given PCIe generation.
func perLaneGTps(gen int) float64 {
	switch gen {
	case 1:
		return 2.5
	case 2:
		return 5.0
	default:
		return 8.0
	}
}

// encodingEfficiency returns the fraction of raw bits that carry data for
// the generation's line code: 8b/10b for Gen1/2, 128b/130b for Gen3.
func encodingEfficiency(gen int) float64 {
	if gen <= 2 {
		return 8.0 / 10.0
	}
	return 128.0 / 130.0
}

// WireBandwidth returns the post-encoding link bandwidth in bytes/second,
// before TLP protocol overhead.
func (p *Params) WireBandwidth() float64 {
	return perLaneGTps(p.Gen) * 1e9 * float64(p.Lanes) * encodingEfficiency(p.Gen) / 8.0
}

// ProtocolEfficiency returns the fraction of wire bandwidth available to
// payload once every MaxPayload bytes carry TLPOverhead bytes of framing.
func (p *Params) ProtocolEfficiency() float64 {
	return float64(p.MaxPayload) / float64(p.MaxPayload+p.TLPOverhead)
}

// EffectiveWireBW returns the payload bandwidth of the wire in
// bytes/second: wire rate times protocol efficiency.
func (p *Params) EffectiveWireBW() float64 {
	return p.WireBandwidth() * p.ProtocolEfficiency()
}

// Validate reports whether the profile is internally consistent; it is
// used by tests and by cmd flag plumbing to reject nonsense profiles.
func (p *Params) Validate() error {
	switch {
	case p.Gen < 1 || p.Gen > 3:
		return errf("Gen must be 1..3, got %d", p.Gen)
	case p.Lanes != 1 && p.Lanes != 2 && p.Lanes != 4 && p.Lanes != 8 && p.Lanes != 16:
		return errf("Lanes must be a power of two 1..16, got %d", p.Lanes)
	case p.MaxPayload < 64 || p.MaxPayload > 4096:
		return errf("MaxPayload out of range: %d", p.MaxPayload)
	case p.DMAEngineBW <= 0:
		return errf("DMAEngineBW must be positive")
	case !validSpread(p.ChipsetSpread):
		return errf("ChipsetSpread factors must be positive")
	case p.MemcpyBW <= 0 || p.WindowWriteBW <= 0 || p.WindowReadBW <= 0:
		return errf("CPU copy bandwidths must be positive")
	case p.RootComplexBW <= 0:
		return errf("RootComplexBW must be positive")
	case p.WindowSize < 4096 || p.WindowSize > 1<<30:
		return errf("WindowSize out of range: %d", p.WindowSize)
	case p.PutChunk < 512 || p.PutChunk > p.WindowSize:
		return errf("PutChunk out of range: %d", p.PutChunk)
	case p.BypassChunk < 512 || p.BypassChunk > p.WindowSize:
		return errf("BypassChunk out of range: %d", p.BypassChunk)
	case p.GetChunk < 512 || p.GetChunk > p.WindowSize:
		return errf("GetChunk out of range: %d", p.GetChunk)
	case p.SymHeapChunk < 4096:
		return errf("SymHeapChunk too small: %d", p.SymHeapChunk)
	case p.SymHeapMax < p.SymHeapChunk:
		return errf("SymHeapMax smaller than one chunk")
	case p.SpadCount < 6:
		return errf("protocol needs at least 6 scratchpads, got %d", p.SpadCount)
	case p.DoorbellBits < 4:
		return errf("protocol needs at least 4 doorbell bits, got %d", p.DoorbellBits)
	case p.SwitchCoreBW <= 0:
		return errf("SwitchCoreBW must be positive")
	case p.CXLWindowBW <= 0:
		return errf("CXLWindowBW must be positive")
	case p.CXLLatency <= 0:
		return errf("CXLLatency must be positive")
	}
	return nil
}

// LinkEngineBW returns the DMA engine rate of the link whose sending
// host is linkIdx, applying the chipset spread.
func (p *Params) LinkEngineBW(linkIdx int) float64 {
	if len(p.ChipsetSpread) == 0 {
		return p.DMAEngineBW
	}
	return p.DMAEngineBW * p.ChipsetSpread[linkIdx%len(p.ChipsetSpread)]
}

func validSpread(spread []float64) bool {
	for _, s := range spread {
		if s <= 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy, for deriving ablation profiles.
func (p *Params) Clone() *Params {
	q := *p
	q.ChipsetSpread = append([]float64(nil), p.ChipsetSpread...)
	return &q
}

func errf(format string, args ...any) error {
	return fmt.Errorf("model: "+format, args...)
}

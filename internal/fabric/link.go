package fabric

import (
	"fmt"

	"repro/internal/driver"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/sim"
)

// The fabric backend boundary. The OpenSHMEM runtime in internal/core is
// fabric-agnostic: it speaks the driver.Info wire protocol and delegates
// everything interconnect-specific — routing, window regions, doorbell
// signalling, service/relay threads, native barriers — to a per-host Link.
// Four backends implement it: the paper's switchless NTB ring (the
// reference; every results/*.csv is produced over it), the two-host NTB
// pair, a modelled PCIe switch with true P2P routing through a shared
// switch core, and a CXL.mem-style mapped window with load/store
// completion and no doorbell round-trips. PROTOCOL.md §12 specifies the
// contract.

// Kind selects a fabric backend.
type Kind int

const (
	// KindNTBRing is the paper's switchless NTB ring: dual-adapter hosts
	// cabled into a ring, rightward (or shortest-arc) routed, with
	// bypass-buffer forwarding and the Fig 6 doorbell barrier.
	KindNTBRing Kind = iota
	// KindNTBPair is two hosts joined by a single NTB cable — the Fig 8
	// "independent" wiring, runnable as a 2-PE world.
	KindNTBPair
	// KindPCIeSwitch is a modelled PCIe switch: every host pair has a
	// true peer-to-peer path, but all pairs share the switch core's
	// upstream bandwidth in the flow network.
	KindPCIeSwitch
	// KindCXL is a CXL.mem-style coherent mapped window: transfers
	// complete like loads and stores, synchronously on the issuing
	// process, with no doorbell interrupts or service-thread wake-ups.
	KindCXL
)

func (k Kind) String() string {
	switch k {
	case KindNTBPair:
		return "ntb-pair"
	case KindPCIeSwitch:
		return "pcie-switch"
	case KindCXL:
		return "cxl"
	default:
		return "ntb-ring"
	}
}

// Kinds lists every fabric backend, in flag-documentation order.
func Kinds() []Kind {
	return []Kind{KindNTBRing, KindNTBPair, KindPCIeSwitch, KindCXL}
}

// ParseKind maps a -fabric flag value to a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "ntb-ring", "ring", "ntb":
		return KindNTBRing, nil
	case "ntb-pair", "pair":
		return KindNTBPair, nil
	case "pcie-switch", "switch":
		return KindPCIeSwitch, nil
	case "cxl", "cxl-mem", "cxl.mem":
		return KindCXL, nil
	default:
		return 0, fmt.Errorf("fabric: unknown fabric kind %q (want ntb-ring, ntb-pair, pcie-switch, or cxl)", s)
	}
}

// MaxHostsFor reports the largest cluster the given backend builds —
// the bound commands validate host-count flags against before any world
// is constructed.
func MaxHostsFor(k Kind) int {
	switch k {
	case KindNTBPair:
		return 2
	case KindPCIeSwitch:
		return MaxSwitchHosts
	case KindCXL:
		return MaxCXLHosts
	default:
		return MaxHosts
	}
}

// Config describes a cluster to build; New is the validated entry point
// every topology constructor funnels through.
type Config struct {
	Sim   *sim.Simulator // the world's simulator
	Par   *model.Params
	Hosts int
	Kind  Kind
}

// New builds a cluster of the configured kind. Host-count limits are
// per-backend: rings scale to MaxHosts, pairs are exactly two hosts, the
// switch is bounded by its port count, CXL by its window decoder count.
func New(cfg Config) (*Cluster, error) {
	switch cfg.Kind {
	case KindNTBRing:
		return NewRing(cfg.Sim, cfg.Par, cfg.Hosts)
	case KindNTBPair:
		if cfg.Hosts != 2 {
			return nil, fmt.Errorf("fabric: the ntb-pair fabric joins exactly 2 hosts by one cable, got %d", cfg.Hosts)
		}
		return NewPair(cfg.Sim, cfg.Par)
	case KindPCIeSwitch:
		return NewSwitch(cfg.Sim, cfg.Par, cfg.Hosts)
	case KindCXL:
		return NewCXL(cfg.Sim, cfg.Par, cfg.Hosts)
	default:
		return nil, fmt.Errorf("fabric: unknown fabric kind %d", cfg.Kind)
	}
}

// Routing selects how data is steered around a ring fabric.
type Routing int

const (
	// RouteRightward is the paper's policy: all data travels toward
	// increasing host Ids, which is how the 3-host testbed exhibits
	// 2-hop transfers. Get replies return leftward along the request's
	// path in either policy.
	RouteRightward Routing = iota
	// RouteShortest sends each message around the shorter arc of the
	// ring (ties go rightward). It halves the average data hop count
	// but doubles barrier cost: with traffic in both directions the
	// ring barrier must circulate its start/end tokens both ways to
	// keep the delivery-flush guarantee.
	RouteShortest
)

func (r Routing) String() string {
	if r == RouteShortest {
		return "shortest"
	}
	return "rightward"
}

// LinkOptions configure the per-host links of a world.
type LinkOptions struct {
	// Mode is the data-movement mechanism: driver.ModeDMA (default) or
	// driver.ModeCPU.
	Mode driver.Mode
	// Routing selects the data steering policy (ring fabrics only).
	Routing Routing
	// Pipeline >= 2 enables the pipelined header-in-window link protocol
	// with that many slots per direction (ring fabrics only).
	Pipeline int
}

// LinkStats counts fabric-level activity a Link performs on the
// runtime's behalf.
type LinkStats struct {
	// Interrupts is the number of doorbell interrupts taken (zero on a
	// load/store fabric such as CXL).
	Interrupts uint64
	// ChunksForwarded counts transit chunks relayed by the host's
	// store-and-forward path (zero on single-hop fabrics).
	ChunksForwarded uint64
}

// Handler consumes the messages a link delivers to its host.
type Handler interface {
	// Deliver consumes one message addressed to the local host. payload
	// aliases fabric-owned space (an inbound window, a pipeline slot, or
	// the sender's buffer on a load/store fabric); the handler must copy
	// what it keeps before calling ack.Ack, which releases that space to
	// the sender.
	Deliver(p *sim.Proc, info driver.Info, payload []byte, ack Acker)
}

// Acker releases the space a delivered message's payload aliases to its
// sender.
type Acker interface{ Ack(p *sim.Proc) }

// Link is one host's attachment to the fabric: the transport the
// OpenSHMEM runtime sends through and is delivered from. Implementations
// own all interconnect-specific machinery — routing direction and window
// region selection, service and relay threads, doorbell vectors, buffer
// staging — so the runtime above contains no backend branches.
//
// Ordering contract: messages from one host to one destination are
// delivered in send order. Send blocks to local completion (the payload
// buffer is reusable on return); whether remote delivery has also
// happened by then is fabric-specific (single-hop NTB and CXL: yes;
// multi-hop ring: no). Reply routes a response generated inside a
// Handler back to the requester without deadlocking the service path.
type Link interface {
	// Start installs the delivery handler and creates the link's service
	// threads, which start on their first message. Called exactly once,
	// before virtual time starts, in host order.
	Start(deliver Handler)
	// Boot performs the fabric's pre-transfer setup exchange (LUT
	// programming, Id publication) and panics if discovery contradicts
	// the built topology. Runs inside the simulation, once per host.
	Boot(p *sim.Proc)
	// Send routes one protocol chunk toward info.Dst, filling in the
	// fabric-owned Info fields (direction, window region). It blocks
	// until the chunk is locally complete.
	Send(p *sim.Proc, info driver.Info, payload driver.Payload)
	// Reply routes a response produced by the delivery handler for orig
	// back to its requester. data, if non-nil, came from GetBuf and is
	// returned to the pool after the reply is pushed.
	Reply(p *sim.Proc, orig driver.Info, reply driver.Info, data []byte)
	// Drain blocks until everything that reached this host has moved on:
	// inbound service work consumed and staged relays pushed one hop.
	// The barrier protocols interpose it before propagating tokens.
	Drain(p *sim.Proc)
	// Barrier runs the fabric's native delivery barrier, if it has one,
	// and reports whether it did; on false the runtime falls back to its
	// fabric-agnostic dissemination barrier over Send.
	Barrier(p *sim.Proc) bool
	// Sync runs the fabric's native synchronisation-only barrier (no
	// delivery flush), if it has one; on false the runtime falls back.
	Sync(p *sim.Proc) bool
	// Stats reports fabric-level activity counters.
	Stats() LinkStats
	// AssertQuiescent panics (naming op) unless the link has fully
	// drained: no queued or mid-service inbound work, no staged relays,
	// no buffered tokens.
	AssertQuiescent(op string)
	// Snapshot captures the link's mutable state (stats, protocol
	// cursors); Restore brings a quiescent same-shaped link, whatever it
	// ran before, to a captured state. Restoring nil is power-on: every
	// counter and cursor zero, as the link was built.
	Snapshot() any
	Restore(s any)
	// GetBuf borrows a staging buffer of n bytes from the host's pool;
	// Reply returns it.
	GetBuf(n int) []byte
}

// Links builds one Link per host for this cluster's fabric kind. It
// validates the option/fabric combination: the pipelined protocol and
// shortest-arc routing exist only on the ring.
func (c *Cluster) Links(opts LinkOptions) ([]Link, error) {
	if opts.Pipeline >= 2 && c.kind != KindNTBRing {
		return nil, fmt.Errorf("fabric: the pipelined header-in-window protocol requires the ntb-ring fabric, not %s", c.kind)
	}
	if opts.Routing == RouteShortest && c.kind != KindNTBRing {
		return nil, fmt.Errorf("fabric: shortest-arc routing requires the ntb-ring fabric, not %s", c.kind)
	}
	if opts.Pipeline >= 2 {
		slotPayload := c.Par.WindowSize/opts.Pipeline - driver.SlotHeaderBytes
		maxChunk := c.Par.PutChunk
		if c.Par.GetChunk > maxChunk {
			maxChunk = c.Par.GetChunk
		}
		if c.Par.BypassChunk > maxChunk {
			maxChunk = c.Par.BypassChunk
		}
		if maxChunk > slotPayload {
			return nil, fmt.Errorf("fabric: pipeline depth %d leaves %d-byte slot payloads, below the largest protocol chunk %d",
				opts.Pipeline, slotPayload, maxChunk)
		}
	}
	links := make([]Link, c.N())
	switch c.kind {
	case KindNTBPair:
		layLinks(c, opts, links, make([]pairLink, c.N()))
	case KindPCIeSwitch:
		layLinks(c, opts, links, make([]switchLink, c.N()))
	case KindCXL:
		layLinks(c, opts, links, make([]cxlLink, c.N()))
	default:
		layLinks(c, opts, links, make([]ringLink, c.N()))
	}
	return links, nil
}

// layLinks builds host i's link in place as slab[i] and lists it as
// links[i]: one allocation for every host's link.
func layLinks[L any, P interface {
	*L
	Link
	init(c *Cluster, h *Host, opts LinkOptions)
}](c *Cluster, opts LinkOptions, links []Link, slab []L) {
	for i, h := range c.Hosts {
		l := P(&slab[i])
		l.init(c, h, opts)
		links[i] = l
	}
}

// bufPool is a host's relay staging buffers. Its buffers are blocks
// borrowed from the mem lender and reused mid-run without clearing: a
// staged chunk overwrites every byte it carries. ReturnStorage gives
// them back, cleared over the longest chunk any of them carried.
type bufPool struct {
	bufs  [][]byte
	dirty int // the longest chunk handed out since the last giveBack
}

// get returns a staging buffer of n bytes: the smallest pooled buffer
// that holds n, or else a block borrowed from the lender.
func (bp *bufPool) get(n int) []byte {
	best := -1
	for i, b := range bp.bufs {
		if cap(b) >= n && (best < 0 || cap(b) < cap(bp.bufs[best])) {
			best = i
		}
	}
	var b []byte
	if best < 0 {
		b = mem.Borrow(n, n)
	} else {
		last := len(bp.bufs) - 1
		b, bp.bufs[best] = bp.bufs[best], bp.bufs[last]
		bp.bufs[last] = nil
		bp.bufs = bp.bufs[:last]
	}
	bp.dirty = max(bp.dirty, n)
	return b[:n]
}

// put returns a staging buffer to the pool. The zero source, which
// zero payloads travel as in place of a staging buffer, is never taken:
// the next borrower would write into it.
func (bp *bufPool) put(b []byte) {
	if cap(b) == 0 || mem.IsZeroSource(b) {
		return
	}
	bp.bufs = append(bp.bufs, b[:0])
}

// giveBack clears every pooled buffer over the extent a chunk may have
// dirtied and returns it to the mem lender.
func (bp *bufPool) giveBack() {
	for i, b := range bp.bufs {
		clear(b[:min(cap(b), bp.dirty)])
		mem.Return(b)
		bp.bufs[i] = nil
	}
	bp.bufs = bp.bufs[:0]
	bp.dirty = 0
}

// resident is the bytes of storage the pool holds.
func (bp *bufPool) resident() int {
	n := 0
	for _, b := range bp.bufs {
		n += cap(b)
	}
	return n
}

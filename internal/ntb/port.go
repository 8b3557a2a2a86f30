// Package ntb models a PCIe Non-Transparent Bridge endpoint after the PLX
// PEX 8733/8749 parts the paper's adapters are built on.
//
// Each Port exposes the register surface the paper's library programs:
//
//   - eight 32-bit ScratchPad registers, readable and writable by both
//     link partners (peer access crosses the link at MMIO cost);
//   - a 16-bit Doorbell register with a mask, where a peer-side set
//     delivers an interrupt to the local host;
//   - two inbound memory windows (the shmem data window and the bypass
//     window), which the peer reaches through its outgoing BAR; and
//   - a DMA engine that moves bulk data through the link.
//
// Bulk transfers are priced by the pcie fluid-flow network (engine rate,
// wire, both root complexes); register accesses are priced with fixed
// MMIO latencies from the model profile.
package ntb

import (
	"fmt"
	"iter"
	"math/bits"
	"slices"
	"strconv"

	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/pcie"
	"repro/internal/sim"
)

// TraceEvent is one observable device action, delivered to an attached
// trace hook. Dur is zero for instantaneous events (register accesses,
// doorbell rings) and the occupancy time for transfers.
type TraceEvent struct {
	T     sim.Time
	Dur   sim.Duration
	Cat   string // "dma", "pio", "doorbell", "spad"
	Name  string // e.g. "xfer", "ring", "deliver", "peer-write"
	Port  string
	Bytes int
}

// TraceFunc receives device trace events; see Port.SetTrace.
type TraceFunc func(TraceEvent)

// Region selects one of a port's inbound memory windows.
type Region int

const (
	// RegionData is the shmem transfer window: puts to a neighbour land
	// here before the service thread copies them into the symmetric heap.
	RegionData Region = iota
	// RegionBypass is the store-and-forward window used when the local
	// host is not the final destination (paper §III-B.1, third step).
	RegionBypass
	numRegions
)

func (r Region) String() string {
	switch r {
	case RegionData:
		return "data"
	case RegionBypass:
		return "bypass"
	default:
		return fmt.Sprintf("region(%d)", int(r))
	}
}

// Port is one NTB endpoint. A switchless-ring host installs two of these
// (left and right adapters). All methods taking a *sim.Proc block that
// process for the modelled duration of the operation.
type Port struct {
	// portState is the guest-visible register state a Snapshot captures
	// and Restore assigns back whole; Restore also brings the scratchpads
	// and the window bytes under the dirty extents along. Every other
	// field is construction identity, installed hooks, or the warm
	// DMA engine.
	portState

	label portLabel // its name, given or formatted on demand (see Name)
	par   *model.Params
	sim   *sim.Simulator
	net   *pcie.Network

	peer     *Port        // cabling survives recycling
	localRC  *pcie.Server // interned flow-network server
	route    *pcie.Route  // interned path to the peer, in the Cable that joined them
	linkDown *bool        // the Cable's state, shared with the peer; snapshots require healthy links

	engineBW float64 // this adapter's DMA engine rate (chipset-dependent)

	spads []uint32
	isr   sim.Ticker // registered handler survives, like a driver's ISR; Tick's argument carries the doorbell bits

	// inbound holds each window's backing store, in parts materialised
	// on demand (see inboundWindow).
	inbound [numRegions]inboundWindow

	// Requester-ID lookup table (the paper's "LUT entry mapping for NTB
	// device identification"): once it holds an entry, inbound window
	// transactions are accepted only from registered requester IDs.
	reqID uint16   // assigned identity, reused at re-boot
	lut   lutTable // boot reprograms the same entries (see Restore doc)

	dma   Engine
	trace TraceFunc // installed trace hook survives recycling
}

// Place is where a fabric-built port sits, from which its name is
// formatted when a trace, a report or an error first asks for it: on
// host Host, its left or right adapter ("h3.left", "h3.right") or, with
// Side ≥ 0, its switch mesh port facing host Side ("h3.m5").
type Place struct{ Host, Side int }

// The adapter sides of Place.Side.
const (
	SideLeft  = -1
	SideRight = -2
)

// portLabel is a port's name: given to NewPort, or formatted from its
// Place on first use and kept.
type portLabel struct {
	name   string
	at     Place
	placed bool
}

// portState is a port's doorbell registers and the dirty extent and
// reclaimed bracket of each inbound window.
type portState struct {
	db     uint16
	dbMask uint16
	// winDirty brackets the bytes of each inbound window that writes may
	// have touched since construction or the last Restore; every byte
	// outside it is zero. Every mutation path (CPUWrite stores, the DMA
	// engine's copy-in) records its extent, and a zero landing trims it
	// (landZero); in-place protocol edits such as a pipelined receiver
	// clearing a slot's valid byte land inside an extent some transfer
	// already dirtied. Restore rezeroes only the storage inside these
	// brackets, so a world that never touched a window pays nothing to
	// recycle it, and InboundRange serves a range outside them as the zero
	// source.
	winDirty [numRegions]extent
	// winStale brackets, in each inbound window, the bytes of loans the
	// sender has reclaimed (see Reclaim) that no landing has covered
	// since. The window held them only by reference, so they have no
	// stored value, and InboundRange panics on a range that overlaps
	// one. Like winDirty it is one bracket: a reclaim widens it to span
	// the new loan too, and a landing trims it only where it covers an
	// end.
	winStale [numRegions]extent
}

// NewPort creates an unconnected port. localRC is the owning host's root
// complex server in the flow network.
func NewPort(name string, s *sim.Simulator, net *pcie.Network, par *model.Params, localRC *pcie.Server) *Port {
	p := &Port{label: portLabel{name: name}}
	p.init(s, net, par, localRC, make([]uint32, par.SpadCount))
	return p
}

// NewPorts builds n unconnected ports in one slab, as a fabric lays out
// its adapters: at(i) gives port i's Place, which names it, and its
// host's root complex server.
func NewPorts(s *sim.Simulator, net *pcie.Network, par *model.Params, n int, at func(i int) (Place, *pcie.Server)) []Port {
	ports := make([]Port, n)
	k := par.SpadCount
	spads := make([]uint32, n*k)
	for i := range ports {
		place, rc := at(i)
		ports[i].label = portLabel{at: place, placed: true}
		ports[i].init(s, net, par, rc, spads[i*k:(i+1)*k:(i+1)*k])
	}
	return ports
}

// init readies a port whose label is set. Inbound windows are
// materialised on demand (see inboundWindow): most worlds never address
// most regions, and the ones they do address mostly carry chunks far
// smaller than WindowSize, so eager allocation would spend the bulk of
// world construction zeroing megabytes nobody reads. Each starts as one
// part.
func (p *Port) init(s *sim.Simulator, net *pcie.Network, par *model.Params, localRC *pcie.Server, spads []uint32) {
	p.par, p.sim, p.net, p.localRC = par, s, net, localRC
	p.engineBW = par.DMAEngineBW
	p.spads = spads
	for r := range p.inbound {
		w := &p.inbound[r]
		w.partBytes, w.parts = par.WindowSize, w.whole[:]
	}
	p.dma.init(p)
}

// Cable is what two connected ports share: the wire's flow-network
// server, the route each direction's transfers are priced along, and
// the link state. Connect makes one; a fabric cabling many port pairs
// lays its cables out in one slice and joins each pair with Join.
type Cable struct {
	wire   pcie.Server
	down   bool
	routes [2]pcie.Route
	paths  [6]*pcie.Server // both routes' server lists when they fit
}

// Connect joins two ports with a cable whose wire capacity comes from the
// model profile. Both ports must be unconnected and share one flow
// network. Each direction's flow-network route (local root complex, the
// cable, the peer's root complex) is interned here, once, so per-transfer
// pricing never rebuilds the server list.
func Connect(a, b *Port) { new(Cable).Join(a, b) }

// Join is Connect over c, a cable laid out in a larger value.
func (c *Cable) Join(a, b *Port) {
	checkCable(a, b)
	c.wire.Init(sim.NameOf("wire:", (*wireName)(a)), a.par.EffectiveWireBW())
	c.join(a, b, &c.wire)
}

// wireName names the wire a cable from a runs: "<a><-><a's peer>".
type wireName Port

func (w *wireName) Name() string { a := (*Port)(w); return a.Name() + "<->" + a.peer.Name() }

// ConnectVia joins two ports whose traffic crosses the given chain of
// shared flow-network servers instead of a dedicated cable — how a PCIe
// switch presents: each direction's route runs local root complex, the
// via chain (in path order), then the peer's root complex. The servers
// may be shared with other port pairs, which is the point: contention at
// a common switch core prices itself in the flow network.
func ConnectVia(a, b *Port, via ...*pcie.Server) {
	checkCable(a, b)
	new(Cable).join(a, b, via...)
}

// checkCable validates that two ports can be joined.
func checkCable(a, b *Port) {
	if a.peer != nil || b.peer != nil {
		panic("ntb: port already connected")
	}
	if a.par != b.par {
		panic("ntb: ports built from different profiles")
	}
	if a.net != b.net {
		panic("ntb: ports priced on different flow networks")
	}
}

// join peers two checked ports over c and interns both directions'
// routes through the via chain.
func (c *Cable) join(a, b *Port, via ...*pcie.Server) {
	a.peer, b.peer = b, a
	k := len(via) + 2
	path := c.paths[:]
	if 2*k > len(path) {
		path = make([]*pcie.Server, 2*k)
	}
	fwd, rev := path[:k:k], path[k:2*k:2*k]
	fwd[0], fwd[k-1] = a.localRC, b.localRC
	rev[0], rev[k-1] = b.localRC, a.localRC
	for i, v := range via {
		fwd[1+i], rev[k-2-i] = v, v
	}
	a.net.InitRoute(&c.routes[0], fwd...)
	b.net.InitRoute(&c.routes[1], rev...)
	a.route, b.route = &c.routes[0], &c.routes[1]
	a.linkDown, b.linkDown = &c.down, &c.down
}

// Unplug fails the cable between this port and its peer, for failure
// injection. After Unplug, posted writes (scratchpads, doorbells, window
// stores) are silently dropped, non-posted reads return the PCIe
// master-abort value (all ones) after a timeout, and in-flight or new
// DMA descriptors never complete — exactly how a yanked PCIe cable
// manifests to software.
func (p *Port) Unplug() {
	if p.linkDown == nil {
		panic("ntb: unplug of an unconnected port")
	}
	*p.linkDown = true
}

// LinkUp reports whether the cable is intact.
func (p *Port) LinkUp() bool { return p.linkDown != nil && !*p.linkDown }

// abortTimeout is how long a non-posted read to a dead link stalls
// before the root complex synthesises the master-abort completion.
const abortTimeout = 50 * sim.Microsecond

// Name returns the port's diagnostic label: the name NewPort was given,
// or one formatted from its Place the first time it is asked for.
func (p *Port) Name() string {
	if p.label.name == "" && p.label.placed {
		at := p.label.at
		side := "m" + strconv.Itoa(at.Side)
		switch at.Side {
		case SideLeft:
			side = "left"
		case SideRight:
			side = "right"
		}
		p.label.name = "h" + strconv.Itoa(at.Host) + "." + side
	}
	return p.label.name
}

// Par returns the platform profile the port was built with.
func (p *Port) Par() *model.Params { return p.par }

// Peer returns the link partner, or nil before Connect.
func (p *Port) Peer() *Port { return p.peer }

// Connected reports whether the port has a link partner.
func (p *Port) Connected() bool { return p.peer != nil }

// DMA returns the port's DMA engine.
func (p *Port) DMA() *Engine { return &p.dma }

// SetRequesterID assigns the PCIe requester ID this port's outbound
// transactions carry (the fabric derives it from host and side).
func (p *Port) SetRequesterID(id uint16) { p.reqID = id }

// RequesterID returns the port's requester ID.
func (p *Port) RequesterID() uint16 { return p.reqID }

// LUTAdd registers a peer requester ID in the port's lookup table and
// enables enforcement: from then on, inbound window transactions from
// unregistered requesters are rejected, as on the PEX parts. It is a
// local register write.
func (p *Port) LUTAdd(pr *sim.Proc, reqID uint16) {
	pr.Sleep(p.par.LocalMMIO)
	if p.LUTContains(reqID) {
		return
	}
	if p.lut.n == len(p.lut.ids) {
		panic(fmt.Sprintf("ntb: %s LUT full (%d entries): cannot admit requester %#x", p.Name(), p.lut.n, reqID))
	}
	p.lut.ids[p.lut.n] = reqID
	p.lut.n++
}

// LUTContains reports whether a requester ID is registered.
func (p *Port) LUTContains(reqID uint16) bool { return slices.Contains(p.lut.ids[:p.lut.n], reqID) }

// lutTable holds a port's registered requester IDs, each once, in the
// order programmed. Boot programs one per port (its cable or mesh peer),
// so a few entries are room enough; a table with any entry is enforced.
type lutTable struct {
	ids [8]uint16
	n   int
}

// admit panics when an enforced LUT rejects the peer's requester ID —
// in simulation a rejected transaction is a protocol-ordering bug (the
// boot exchange programs LUTs before any data flows), so it fails loudly
// rather than silently dropping as the hardware would.
func (p *Port) admit(from *Port) {
	if p.lut.n > 0 && !p.LUTContains(from.reqID) {
		panic(fmt.Sprintf("ntb: %s rejected transaction from requester %#x (%s): not in LUT",
			p.Name(), from.reqID, from.Name()))
	}
}

// SetTrace attaches a trace hook; nil detaches. The hook runs inline on
// the simulation's virtual timeline and must not block.
func (p *Port) SetTrace(fn TraceFunc) { p.trace = fn }

func (p *Port) emit(cat, name string, dur sim.Duration, bytes int) {
	if p.trace != nil {
		p.trace(TraceEvent{T: p.sim.Now(), Dur: dur, Cat: cat, Name: name, Port: p.Name(), Bytes: bytes})
	}
}

// SetEngineBW overrides the adapter's DMA engine rate, which the fabric
// uses to model the paper's mixed PEX 8733/8749 chipsets. Must be set
// before any transfer.
func (p *Port) SetEngineBW(bw float64) {
	if bw <= 0 {
		panic("ntb: non-positive engine bandwidth")
	}
	p.engineBW = bw
}

// EngineBW returns the adapter's DMA engine rate.
func (p *Port) EngineBW() float64 { return p.engineBW }

// InboundRange returns bytes [off, off+n) of an inbound window, which
// must lie inside one part (see Partition), without materialising the
// rest. A range inside an outstanding loan is the sender's own buffer
// (see lend): the service thread copies a stop-and-wait chunk out of it
// before its ACK lets the sender reclaim it, and a read after that panics.
// A range no write has dirtied, or past everything its part holds
// storage for, is the shared zero source (mem.Zeros): a zero chunk
// reaches its receiver, and a pipelined receiver polls an idle slot's
// header, without the window ever holding the bytes. Any other range
// aliases device memory: the service thread copies out of it, and a
// receiver may edit it in place (a pipelined receiver clearing a slot's
// valid byte).
func (p *Port) InboundRange(r Region, off, n int) []byte {
	w := &p.inbound[r]
	i, base := w.part(off, n)
	if l := w.lent(); l.overlaps(off, n) {
		if off+n > int(l.hi) {
			panic(fmt.Sprintf("ntb: read of [%d,%d) of %s's %v window straddles the loan [%d,%d)", off, off+n, p.Name(), r, l.lo, l.hi))
		}
		return w.loan[off:][:n]
	}
	if st := p.winStale[r]; st.overlaps(off, n) {
		panic(fmt.Sprintf("ntb: read of [%d,%d) of %s's %v window after the sender reclaimed [%d,%d): a stop-and-wait chunk must be copied out before its ACK",
			off, off+n, p.Name(), r, st.lo, st.hi))
	}
	if !p.winDirty[r].overlaps(off, n) || len(w.parts[i]) <= off-base {
		return mem.Zeros(n)
	}
	return w.grow(i, off-base+n, p.winDirty[r])[off-base:][:n]
}

// WindowResident reports how many bytes of an inbound window hold
// storage on the host, summed over its parts.
func (p *Port) WindowResident(r Region) int {
	n := 0
	for _, s := range p.inbound[r].parts {
		n += len(s)
	}
	return n
}

// Partition divides inbound window r into parts equal parts of
// WindowSize/parts bytes, each materialised on its own; a pipelined
// receiver divides its data window into its slots, so the ring holds
// storage only for the slots that carried data. Every transfer into the
// window must then lie inside one part; the remainder past the last
// part belongs to none. Partitioning is part of building the receiver:
// the window must not hold storage yet.
func (p *Port) Partition(r Region, parts int) {
	if parts < 1 || parts > p.par.WindowSize {
		panic(fmt.Sprintf("ntb: %d parts of a %d-byte window", parts, p.par.WindowSize))
	}
	if p.WindowResident(r) != 0 || p.winDirty[r] != (extent{}) || p.winStale[r] != (extent{}) || p.inbound[r].loan != nil {
		panic("ntb: partition of " + p.Name() + "'s " + r.String() + " window after it was written")
	}
	p.inbound[r] = inboundWindow{partBytes: p.par.WindowSize / parts, parts: make([][]byte, parts)}
}

// minWindow is the smallest materialised part; Params.Validate keeps
// WindowSize at or above it.
const minWindow = 4096

// inboundWindow is one inbound window's backing store, in equal parts:
// one part of WindowSize unless Partition divided the window. Each part
// is materialised only up to the highest byte a write, a DMA descriptor,
// a restore or a reader has reached within it; beyond that it reads as
// zeros. Every transfer lies inside one part, so a payload is always one
// contiguous slice of one part's storage. A lent range (see lend) holds
// no storage at all: the window refers to the sender's buffer until the
// sender reclaims it.
type inboundWindow struct {
	partBytes int
	parts     [][]byte
	whole     [1][]byte // parts' backing while the window is one part
	loan      []byte    // the outstanding loan, from the window's first byte; nil when none is outstanding
	// spent holds the parts grow outgrew, each with the run of it that
	// may hold bytes, until giveBack clears and returns them.
	spent []spentPart
}

// spentPart is an outgrown part's block and its possibly dirty run.
type spentPart struct{ block, dirty []byte }

// lent returns the outstanding loan's extent, empty when there is none.
func (w *inboundWindow) lent() extent { return span(0, len(w.loan)) }

// part locates [off, off+n): the index of the part holding it and that
// part's window offset. A range crossing a part boundary, or lying in
// the remainder past the last part, breaks the invariant every transfer
// keeps and panics.
func (w *inboundWindow) part(off, n int) (i, base int) {
	if len(w.parts) > 1 { // a stop-and-wait window skips the division
		i = min(off/w.partBytes, len(w.parts)-1)
		base = i * w.partBytes
	}
	if off < 0 || off+n > base+w.partBytes {
		panic(fmt.Sprintf("ntb: window access [%d,%d) crosses a %d-byte part", off, off+n, w.partBytes))
	}
	return i, base
}

// grow returns part i's storage, materialised at least up to end (an
// offset within the part). Storage is a block from the mem lender in
// power-of-two steps — the smallest free block that reaches end, used
// whole up to the part size, so a part rebuilt on a recycled world takes
// the block its predecessor gave back instead of stepping up from 4 KiB
// again. Unmaterialised bytes read as zeros exactly like an eagerly
// allocated window's, so virtual-time behaviour is unchanged. A part
// outgrown mid-run is kept aside until giveBack, with the run of it that
// dirty extent d reached: an alias handed out before a growth step keeps
// the bytes it was taken for until the port's storage goes back — the
// store it points into is never written again — and every receiver
// re-fetches its range per message, so none goes on reading an outgrown
// one.
func (w *inboundWindow) grow(i, end int, d extent) []byte {
	s := w.parts[i]
	if end > len(s) {
		block := mem.Borrow(min(w.partBytes, max(minWindow, 1<<bits.Len(uint(end-1)))), w.partBytes)
		grown := block[:min(w.partBytes, len(block))]
		copy(grown, s)
		if cap(s) > 0 {
			base := i * w.partBytes
			lo, hi := min(max(int(d.lo)-base, 0), len(s)), min(max(int(d.hi)-base, 0), len(s))
			w.spent = append(w.spent, spentPart{block: s, dirty: s[lo:hi]})
		}
		w.parts[i], s = grown, grown
	}
	return s
}

// giveBack clears the storage inside extent d and returns every part,
// and every part the window outgrew, to the mem lender, leaving the
// window without storage.
func (w *inboundWindow) giveBack(d extent) {
	for _, b := range w.dirtyRuns(d) {
		clear(b)
	}
	for i, s := range w.parts {
		if cap(s) > 0 {
			mem.Return(s)
			w.parts[i] = nil
		}
	}
	for i, sp := range w.spent {
		clear(sp.dirty)
		mem.Return(sp.block)
		w.spent[i] = spentPart{}
	}
	w.spent = w.spent[:0]
}

// dirtyRuns yields, part by part, the storage inside extent d: each
// run's window offset and its bytes, aliasing the store. Bytes of d past
// a part's storage are zero and not yielded, so a ring whose extent
// spans slots 0 to 5 yields two runs when only those two slots landed.
func (w *inboundWindow) dirtyRuns(d extent) iter.Seq2[int, []byte] {
	dlo, dhi := int(d.lo), int(d.hi)
	return func(yield func(int, []byte) bool) {
		for i := dlo / w.partBytes; dlo < dhi && i < len(w.parts) && i*w.partBytes < dhi; i++ {
			base, s := i*w.partBytes, w.parts[i]
			if lo, hi := max(dlo, base), min(dhi, base+len(s)); lo < hi && !yield(lo, s[lo-base:hi-base]) {
				return
			}
		}
	}
}

// landing marks [off, off+n) of region r dirty and returns it, for a
// transfer's bytes to land in; the range lies in part i at window offset
// base.
func (p *Port) landing(r Region, i, base, off, n int) []byte {
	p.markDirty(r, off, n)
	return p.inbound[r].grow(i, off-base+n, p.winDirty[r])[off-base:][:n]
}

// landZero lands a transfer of n zero bytes at [off, off+n) of region r,
// in part i at window offset base. Bytes outside the dirty extent are
// zero already, so only the overlap is cleared — as far as the part
// holds storage — and dropped from the extent where it trims an end; the
// window is neither materialised nor dirtied.
func (p *Port) landZero(r Region, i, base, off, n int) {
	d := &p.winDirty[r]
	lo, hi := max(off, int(d.lo)), min(off+n, int(d.hi))
	if lo >= hi {
		return
	}
	s := p.inbound[r].parts[i]
	clear(s[min(lo-base, len(s)):min(hi-base, len(s))])
	d.trim(lo, hi)
}

// extent is a half-open range [lo, hi) within a window; lo == hi means
// empty. Its bounds are 32-bit (Params.Validate caps WindowSize), which
// keeps portState, and with it every Port and PortSnapshot, small.
type extent struct{ lo, hi int32 }

// span is the extent [off, off+n).
func span(off, n int) extent { return extent{int32(off), int32(off + n)} }

// overlaps reports whether [off, off+n) shares a byte with e.
func (e extent) overlaps(off, n int) bool {
	return e.lo < e.hi && n > 0 && off < int(e.hi) && off+n > int(e.lo)
}

// widen makes e the smallest extent covering both e and the non-empty x.
func (e *extent) widen(x extent) {
	if e.lo == e.hi {
		*e = x
		return
	}
	e.lo, e.hi = min(e.lo, x.lo), max(e.hi, x.hi)
}

// trim drops [lo, hi) from e where it covers e whole or one of its ends;
// a range strictly inside e, or outside it, leaves e as it is.
func (e *extent) trim(lo, hi int) {
	switch {
	case lo >= int(e.hi) || hi <= int(e.lo):
	case lo <= int(e.lo) && hi >= int(e.hi):
		*e = extent{}
	case lo <= int(e.lo):
		e.lo = int32(hi)
	case hi >= int(e.hi):
		e.hi = int32(lo)
	}
}

// covers marks [off, off+n) of region r as holding a value again: a
// landing there must not meet an outstanding loan, and the bytes leave
// the reclaimed bracket where they trim it.
func (p *Port) covers(r Region, off, n int) {
	if l := p.inbound[r].lent(); l.overlaps(off, n) {
		panic(fmt.Sprintf("ntb: transfer into [%d,%d) of %s's %v window while [%d,%d) is lent", off, off+n, p.Name(), r, l.lo, l.hi))
	}
	p.winStale[r].trim(off, off+n)
}

// markDirty widens region r's dirty extent to cover [off, off+n).
func (p *Port) markDirty(r Region, off, n int) {
	if n > 0 {
		p.winDirty[r].widen(span(off, n))
	}
}

func (p *Port) mustPeer() *Port {
	if p.peer == nil {
		panic("ntb: " + p.Name() + " is not connected")
	}
	return p.peer
}

// ---- ScratchPad registers ----

// SpadRead reads a local scratchpad register.
func (p *Port) SpadRead(pr *sim.Proc, idx int) uint32 {
	pr.Sleep(p.par.LocalMMIO)
	return p.spads[idx]
}

// PeerSpadWrite writes the peer's scratchpad register idx across the link
// (a posted write; silently dropped if the cable is down).
func (p *Port) PeerSpadWrite(pr *sim.Proc, idx int, val uint32) {
	pr.Sleep(p.par.MMIOWrite)
	p.emit("spad", "peer-write", 0, 4)
	if *p.mustPeerLink() {
		return
	}
	p.peer.spads[idx] = val
}

// PeerSpadRead reads the peer's scratchpad register idx across the link
// (a non-posted read that waits for the completion TLP). On a dead link
// it stalls for the abort timeout and returns all ones.
func (p *Port) PeerSpadRead(pr *sim.Proc, idx int) uint32 {
	if *p.mustPeerLink() {
		pr.Sleep(abortTimeout)
		return ^uint32(0)
	}
	pr.Sleep(p.par.MMIORead)
	p.emit("spad", "peer-read", 0, 4)
	return p.peer.spads[idx]
}

// mustPeerLink returns the shared link-down flag, panicking when the
// port was never cabled.
func (p *Port) mustPeerLink() *bool {
	p.mustPeer()
	return p.linkDown
}

// ---- Doorbell registers ----

// SetISR registers the host's interrupt handler. The handler runs in
// scheduler context after the modelled interrupt latency; it must not
// block (real handlers queue work for the service thread, and so do ours).
func (p *Port) SetISR(fn func(bits uint16)) {
	p.isr = nil
	if fn != nil {
		p.isr = isrFunc(fn)
	}
}

// SetInterruptTarget is SetISR for a handler that is a sim.Ticker: its
// Tick receives the doorbell bits, and registering it allocates nothing.
func (p *Port) SetInterruptTarget(tk sim.Ticker) { p.isr = tk }

// isrFunc is an interrupt handler function as a sim.Ticker.
type isrFunc func(bits uint16)

func (f isrFunc) Tick(arg uint64) { f(uint16(arg)) }

// PeerDBSet rings doorbell bits on the peer port: a posted MMIO write,
// then interrupt delivery on the far host after the interrupt latency.
// Dropped silently on a dead link.
func (p *Port) PeerDBSet(pr *sim.Proc, bits uint16) {
	pr.Sleep(p.par.MMIOWrite)
	if *p.mustPeerLink() {
		return
	}
	p.emit("doorbell", "ring", 0, 0)
	// The peer port is its own delivery timer (sim.Ticker): doorbells
	// ring once per protocol chunk, and carrying the bits in the event
	// argument keeps that path closure- and allocation-free.
	p.sim.AfterTick(p.par.InterruptLatency, p.peer, uint64(bits))
}

// Tick implements sim.Ticker: scheduled interrupt delivery, arg carrying
// the doorbell bits rung InterruptLatency ago. Not for direct use.
func (p *Port) Tick(arg uint64) { p.raise(uint16(arg)) }

// raise latches bits into the doorbell register and, for unmasked bits,
// invokes the ISR.
func (p *Port) raise(bits uint16) {
	p.emit("doorbell", "deliver", 0, 0)
	p.db |= bits
	if deliver := bits &^ p.dbMask; deliver != 0 && p.isr != nil {
		p.isr.Tick(uint64(deliver))
	}
}

// ClearInISR clears doorbell bits from interrupt context (the handler has
// already paid the ISR cost; a separate MMIO charge would double-count).
func (p *Port) ClearInISR(bits uint16) { p.db &^= bits }

// DBRead returns the doorbell status register.
func (p *Port) DBRead(pr *sim.Proc) uint16 {
	pr.Sleep(p.par.LocalMMIO)
	return p.db
}

// DBClear clears the given doorbell bits.
func (p *Port) DBClear(pr *sim.Proc, bits uint16) {
	pr.Sleep(p.par.LocalMMIO)
	p.db &^= bits
}

// DBSetMask masks the given doorbell bits: masked bits still latch into
// the status register but do not raise interrupts.
func (p *Port) DBSetMask(pr *sim.Proc, bits uint16) {
	pr.Sleep(p.par.LocalMMIO)
	p.dbMask |= bits
}

// DBClearMask unmasks bits; any already-latched newly-unmasked bits fire
// the ISR immediately, as on the PEX parts.
func (p *Port) DBClearMask(pr *sim.Proc, bits uint16) {
	pr.Sleep(p.par.LocalMMIO)
	p.dbMask &^= bits
	if pending := p.db &^ p.dbMask & bits; pending != 0 && p.isr != nil {
		p.isr.Tick(uint64(pending))
	}
}

// ---- Memory windows ----

// Route returns the interned flow-network route a transfer to the peer
// crosses, built at Connect time.
func (p *Port) Route() *pcie.Route {
	p.mustPeer()
	return p.route
}

// checkWindow validates a transfer into the peer's window r: it must lie
// inside the window and inside one of its parts.
func (p *Port) checkWindow(r Region, off, n int) {
	if r < 0 || r >= numRegions {
		panic(fmt.Sprintf("ntb: bad region %d", r))
	}
	if off < 0 || n < 0 || off+n > p.par.WindowSize {
		panic(fmt.Sprintf("ntb: window access [%d,%d) exceeds window size %d", off, off+n, p.par.WindowSize))
	}
	p.mustPeer().inbound[r].part(off, n)
}

// CPUWrite moves data into the peer's inbound window with programmed I/O:
// the calling process performs write-combining stores through its
// outgoing BAR. It blocks for the full transfer.
func (p *Port) CPUWrite(pr *sim.Proc, r Region, off int, data []byte) {
	p.CPUWriteHdr(pr, r, off, nil, data)
}

// CPUWriteHdr is CPUWrite of a framed message: hdr lands at off and data
// right behind it, in one burst of stores priced as one transfer of
// len(hdr)+len(data) bytes, so a framed sender needs no staging copy.
func (p *Port) CPUWriteHdr(pr *sim.Proc, r Region, off int, hdr, data []byte) {
	if p.store(pr, r, off, len(hdr)+len(data)) {
		p.peer.land(r, off, hdr, data)
	}
}

// CPULend is CPUWrite of a chunk the peer's window holds by reference:
// the same stores into window r from its first byte, priced the same,
// after which the window's first len(data) bytes are data itself until
// the caller reclaims them (see lend).
func (p *Port) CPULend(pr *sim.Proc, r Region, data []byte) {
	if p.store(pr, r, 0, len(data)) {
		p.peer.lend(r, data)
	}
}

// store prices n bytes of programmed-I/O stores into the peer's window r
// at off and reports whether they reached it: posted stores to a dead
// link vanish.
func (p *Port) store(pr *sim.Proc, r Region, off, n int) bool {
	p.checkWindow(r, off, n)
	peer := p.mustPeer()
	peer.admit(p)
	start := pr.Now()
	p.net.TransferRoute(pr, int64(n), p.par.WindowWriteBW, p.route)
	p.emit("pio", "window-write", pr.Now().Sub(start), n)
	return !*p.linkDown
}

// land delivers one transfer into region r at off: hdr, then data right
// behind it. Data from the zero source lands as zeros (landZero), so a
// zero payload behind a header dirties and materialises nothing.
func (p *Port) land(r Region, off int, hdr, data []byte) {
	i, base := p.inbound[r].part(off, len(hdr)+len(data))
	p.covers(r, off, len(hdr)+len(data))
	if len(hdr) > 0 {
		copy(p.landing(r, i, base, off, len(hdr)), hdr)
		off += len(hdr)
	}
	if mem.IsZeroSource(data) {
		p.landZero(r, i, base, off, len(data))
		return
	}
	copy(p.landing(r, i, base, off, len(data)), data)
}

// lend is how a stop-and-wait chunk lands (CPULend, Engine.LendWait):
// the paper's receiver copies every chunk out of the window before its
// ACK releases the window (PROTOCOL.md §2), so the window need not hold
// a copy of its own. Until the sender's Reclaim, InboundRange serves the
// first len(data) bytes of window r from data itself, the sender's
// buffer; no window storage is borrowed and no dirty extent grows. A
// loan starts at the window's first byte, where every stop-and-wait
// chunk lands. One loan per window may be outstanding, no landing may
// overlap it, and Snapshot, Restore and ReturnStorage refuse a port that
// holds one.
func (p *Port) lend(r Region, data []byte) {
	w := &p.inbound[r]
	if len(data) == 0 {
		panic("ntb: loan of no bytes into " + p.Name() + "'s " + r.String() + " window")
	}
	if w.loan != nil {
		panic(fmt.Sprintf("ntb: second loan into %s's %v window while [0,%d) is lent", p.Name(), r, len(w.loan)))
	}
	p.covers(r, 0, len(data))
	w.loan = data
}

// Reclaim ends the outstanding loan into the peer's window r, once the
// receiver's ACK says it copied the chunk out; the sender may then reuse
// its buffer. The lent bytes join the peer's reclaimed bracket, which
// InboundRange refuses to read until a later landing covers them.
func (p *Port) Reclaim(r Region) {
	peer := p.mustPeer()
	w := &peer.inbound[r]
	if w.loan == nil {
		panic("ntb: reclaim of " + peer.Name() + "'s " + r.String() + " window with no loan outstanding")
	}
	peer.winStale[r].widen(w.lent())
	w.loan = nil
}

// assertNoLoans panics while any window of the port is lent: the bytes
// are the sender's, so the window can be neither captured nor recycled.
func (p *Port) assertNoLoans(op string) {
	for r := range p.inbound {
		if n := len(p.inbound[r].loan); n > 0 {
			panic(fmt.Sprintf("ntb: %s of %s with [0,%d) of its %v window lent", op, p.Name(), n, Region(r)))
		}
	}
}

// CPURead pulls data from the peer's inbound window with uncached loads
// across the link. The paper's library never bulk-reads through the
// window — this method exists to let tests demonstrate why (WindowReadBW
// is catastrophically low).
func (p *Port) CPURead(pr *sim.Proc, r Region, off int, buf []byte) {
	p.checkWindow(r, off, len(buf))
	peer := p.mustPeer()
	peer.admit(p)
	if *p.linkDown {
		pr.Sleep(abortTimeout)
		for i := range buf {
			buf[i] = 0xFF // master-abort data
		}
		return
	}
	start := pr.Now()
	p.net.TransferRoute(pr, int64(len(buf)), p.par.WindowReadBW, p.route)
	p.emit("pio", "window-read", pr.Now().Sub(start), len(buf))
	copy(buf, peer.InboundRange(r, off, len(buf)))
}

// ---- DMA engine ----

// Desc is one DMA descriptor: move the first Bytes bytes of Src into the
// peer's inbound window r behind the optional header prefix Hdr, which
// lands at Off in the same transfer of len(Hdr)+Bytes bytes.
type Desc struct {
	Region Region
	Off    int
	Hdr    []byte
	Src    []byte
	Bytes  int
}

// check validates a descriptor against the engine's port.
func (d *Desc) check(p *Port) {
	p.checkWindow(d.Region, d.Off, len(d.Hdr)+d.Bytes)
	if len(d.Src) < d.Bytes {
		panic("ntb: DMA descriptor source shorter than Bytes")
	}
}

// Engine is a per-adapter DMA engine. Descriptors are processed strictly
// in submission order; each costs the setup time plus the flow-network
// transfer time. Its process starts on the first descriptor, so an
// adapter whose engine is never rung never spawns one.
type Engine struct {
	port  *Port
	queue sim.Reactor[*Engine, *engineJob]
	busy  int
	// jpool recycles job records: a SubmitWait caller returns its own
	// after the wait, and the engine returns a Submit's as it lands, so
	// the descriptor path allocates nothing once the pool is warm.
	jpool []*engineJob
	// submitted and landed count descriptors in submission order; a
	// Ticket is the submitted count its descriptor took, and tickets
	// wakes Ticket waiters as each of theirs lands.
	submitted, landed uint64
	tickets           sim.Cond
}

type engineJob struct {
	desc   Desc
	lend   bool // land the source as a loan (LendWait), not a copy
	ticket bool // a Submit's: the engine recycles it as it lands
	done   sim.Completion
}

// init readies the engine of port p, which names its queue, its process
// and its completions.
func (e *Engine) init(p *Port) {
	e.port = p
	e.queue.Init(p.sim, sim.NameOf("dma:", p), "dma-engine:", e, (*Engine).run)
	e.tickets.Init(sim.NameOf("dma-done:", p))
}

// job returns a recycled job record, or a new one on a pool miss.
func (e *Engine) job() *engineJob {
	if last := len(e.jpool) - 1; last >= 0 {
		job := e.jpool[last]
		e.jpool = e.jpool[:last]
		job.done.Reset()
		return job
	}
	job := new(engineJob) // pool miss; recycled forever after
	job.done.Init(sim.NameOf("dma-done:", e.port))
	return job
}

// Ticket is a submitted descriptor's completion.
type Ticket struct {
	e *Engine
	n uint64 // the descriptor's place in submission order
}

// Done reports whether the descriptor's data is visible in the peer
// window.
func (t Ticket) Done() bool { return t.e.landed >= t.n }

// Wait parks until the descriptor's data is visible in the peer window;
// afterwards it returns immediately.
func (t Ticket) Wait(p *sim.Proc) {
	for !t.Done() {
		t.e.tickets.Wait(p)
	}
}

// Submit enqueues a descriptor and returns a ticket that completes when
// the data is visible in the peer window. Submit itself costs one local
// register write (ringing the engine) when called from process context;
// pass nil to submit from scheduler context at zero cost.
func (e *Engine) Submit(pr *sim.Proc, d Desc) Ticket {
	d.check(e.port)
	if pr != nil {
		pr.Sleep(e.port.par.LocalMMIO)
	}
	job := e.job()
	job.desc, job.lend, job.ticket = d, false, true
	e.submitted++
	e.busy++
	e.queue.Push(job)
	return Ticket{e, e.submitted}
}

// SubmitWait enqueues a descriptor and blocks the caller until the data
// is visible in the peer window — Submit followed by Wait, except that
// the caller holds the job record until it wakes and recycles it itself.
func (e *Engine) SubmitWait(pr *sim.Proc, d Desc) { e.submitWait(pr, d, false) }

// LendWait is SubmitWait of a chunk the peer's window holds by
// reference: the descriptor that moves data to the first byte of window
// r, priced the same, after which the window's first len(data) bytes are
// data itself until the caller reclaims them (see Port.Reclaim). This is
// the form the stop-and-wait channel uses.
func (e *Engine) LendWait(pr *sim.Proc, r Region, data []byte) {
	e.submitWait(pr, Desc{Region: r, Src: data, Bytes: len(data)}, true)
}

// submitWait runs one descriptor to completion, landing it as a copy or,
// with lend set, as a loan.
func (e *Engine) submitWait(pr *sim.Proc, d Desc, lend bool) {
	d.check(e.port)
	pr.Sleep(e.port.par.LocalMMIO)
	job := e.job()
	job.desc, job.lend, job.ticket = d, lend, false
	e.submitted++
	e.busy++
	e.queue.Push(job)
	job.done.Wait(pr)
	job.desc = Desc{} // release the source buffer/heap references
	e.jpool = append(e.jpool, job)
}

// Pending reports descriptors submitted but not yet completed.
func (e *Engine) Pending() int { return e.busy }

// assertIdle panics unless the engine has no descriptors queued or in
// flight — a wedged or mid-descriptor engine can be neither captured
// nor recycled. The warm job pool survives a restore.
func (e *Engine) assertIdle(op string) {
	if e.busy != 0 || e.queue.Len() != 0 {
		panic(fmt.Sprintf("ntb: %s of %s with %d descriptor(s) outstanding", op, e.port.Name(), e.busy))
	}
}

// run is the engine's process, started on its first job.
func (e *Engine) run(pr *sim.Proc, job *engineJob) {
	par := e.port.par
	for ; ; job = e.queue.Pop(pr) {
		d := &job.desc
		start := pr.Now()
		pr.Sleep(par.DMASetup)
		if *e.port.linkDown {
			// The engine wedges on a dead link: the descriptor never
			// completes and the engine processes nothing further, as on
			// real parts until a driver-level reset.
			pr.Sleep(par.DMASetup)
			wedge := sim.NewCompletion("dma-wedged:" + e.port.Name())
			wedge.Wait(pr) // parks forever
		}
		peer := e.port.mustPeer()
		peer.admit(e.port)
		n := len(d.Hdr) + d.Bytes
		e.port.net.TransferRoute(pr, int64(n), e.port.engineBW, e.port.route)
		if job.lend {
			peer.lend(d.Region, d.Src[:d.Bytes])
		} else {
			peer.land(d.Region, d.Off, d.Hdr, d.Src[:d.Bytes])
		}
		e.port.emit("dma", "xfer", pr.Now().Sub(start), n)
		e.busy--
		e.landed++
		job.done.Complete()
		if job.ticket {
			job.desc = Desc{}
			e.jpool = append(e.jpool, job)
			e.tickets.Broadcast()
		}
	}
}

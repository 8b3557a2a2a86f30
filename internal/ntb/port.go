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
//     window), which the peer reaches through its outgoing BAR. A window
//     is an address translation, not storage: a copy landing is a store
//     into memory the receiving host registered (SetTrans), and a
//     stop-and-wait chunk is lent, served from the sender's buffer until
//     its ACK; and
//   - a DMA engine that moves bulk data through the link.
//
// Bulk transfers are priced by the pcie fluid-flow network (engine rate,
// wire, both root complexes); register accesses are priced with fixed
// MMIO latencies from the model profile.
package ntb

import (
	"fmt"
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
	// along. Every other field is construction identity, installed hooks,
	// the warm DMA engine, or the windows' translations, whose memory
	// belongs to the receivers that registered it.
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

	// inbound holds each window's translation and outstanding loan (see
	// inboundWindow); the port holds no payload bytes.
	inbound [numRegions]inboundWindow

	// Requester-ID lookup table (the paper's "LUT entry mapping for NTB
	// device identification"): once it holds an entry, inbound window
	// transactions are accepted only from registered requester IDs.
	reqID uint16   // assigned identity, reused at re-boot
	lut   lutTable // boot reprograms the same entries (see Restore doc)

	dma   *Engine   // built by the first DMA call; nil on a port that never ran one
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

// portState is a port's doorbell registers and the reclaimed bracket of
// each inbound window.
type portState struct {
	db     uint16
	dbMask uint16
	// winStale brackets, in each inbound window, the bytes of loans the
	// sender has reclaimed (see Reclaim) that no landing has covered
	// since. The window held them only by reference, so they have no
	// stored value, and InboundRange panics on a range that overlaps
	// one. It is one bracket: a reclaim widens it to span the new loan
	// too, and a landing trims it only where it covers an end.
	winStale [numRegions]extent
}

// NewPort creates an unconnected port. localRC is the owning host's root
// complex server in the flow network. Each of its inbound windows
// translates onto a default target, a flat buffer of WindowSize bytes
// borrowed as landings reach into it (mem.Buffer), so the raw device API
// works on a bare port; a receiver may register its own (SetTrans).
func NewPort(name string, s *sim.Simulator, net *pcie.Network, par *model.Params, localRC *pcie.Server) *Port {
	p := &Port{label: portLabel{name: name}}
	p.init(s, net, par, localRC, make([]uint32, par.SpadCount))
	bufs := mem.NewBuffers(int(numRegions), par.WindowSize)
	for r := range bufs {
		p.inbound[r].trans = &bufs[r]
	}
	return p
}

// NewPorts builds n unconnected ports in one slab, as a fabric lays out
// its adapters: at(i) gives port i's Place, which names it, and its
// host's root complex server. Their windows have no translation until a
// receiver registers one (SetTrans).
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

// init readies a port whose label is set.
func (p *Port) init(s *sim.Simulator, net *pcie.Network, par *model.Params, localRC *pcie.Server, spads []uint32) {
	p.par, p.sim, p.net, p.localRC = par, s, net, localRC
	p.engineBW = par.DMAEngineBW
	p.spads = spads
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

// DMA returns the port's DMA engine, building it on the first call: a
// port that only ever moves data by programmed I/O (memcpy mode, or a
// side that never sends) carries no engine, and a built one stays,
// warm, for the port's life.
func (p *Port) DMA() *Engine {
	if p.dma == nil {
		p.dma = new(Engine)
		p.dma.init(p)
	}
	return p.dma
}

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

// InboundRange returns bytes [off, off+n) of an inbound window. A range
// inside an outstanding loan is the sender's own buffer (see lend): the
// service thread copies a stop-and-wait chunk out of it before its ACK
// lets the sender reclaim it, and a read after that panics. Any other
// range is read through the window's translation (see SetTrans): an
// alias of the receiver's memory, or the zero source (mem.Zeros) where
// nothing landed. A window without a translation reads as zeros.
func (p *Port) InboundRange(r Region, off, n int) []byte {
	w := &p.inbound[r]
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
	if w.trans == nil {
		return mem.Zeros(n)
	}
	return w.trans.Range(off, n)
}

// Target is the host memory an inbound window translates onto. The
// window holds no bytes of its own: as a Linux NTB client points a
// memory window at a buffer it allocated (ntb_mw_set_trans), the
// receiver registers its memory with SetTrans, every copy landing in
// the window is a store into it, and every read of the window a read of
// it. The receiver owns the memory's lifetime; a port's Snapshot and
// Restore leave it alone.
type Target interface {
	// Land stores hdr at window offset off and data right behind it.
	// Data from the zero source (mem.Zeros) lands as zeros.
	Land(off int, hdr, data []byte)
	// Range returns bytes [off, off+n): an alias of the memory, or the
	// zero source where nothing landed.
	Range(off, n int) []byte
}

// SetTrans points inbound window r at t, the receiver's memory; nil
// leaves the window without one. A port NewPort builds starts with a
// default target per window (see NewPort). A fabric-built port starts
// with none: its
// stop-and-wait chunks are lent (see lend), a zero landing stores
// nothing, and any other copy landing is a protocol bug that panics.
func (p *Port) SetTrans(r Region, t Target) { p.inbound[r].trans = t }

// inboundWindow is one inbound window: its translation and the
// outstanding loan. A lent range (see lend) is served from the sender's
// buffer until the sender reclaims it; every other landing goes through
// the translation.
type inboundWindow struct {
	loan  []byte // the outstanding loan, from the window's first byte; nil when none is outstanding
	trans Target
}

// lent returns the outstanding loan's extent, empty when there is none.
func (w *inboundWindow) lent() extent { return span(0, len(w.loan)) }

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
// inside the window.
func (p *Port) checkWindow(r Region, off, n int) {
	if r < 0 || r >= numRegions {
		panic(fmt.Sprintf("ntb: bad region %d", r))
	}
	if off < 0 || n < 0 || off+n > p.par.WindowSize {
		panic(fmt.Sprintf("ntb: window access [%d,%d) exceeds window size %d", off, off+n, p.par.WindowSize))
	}
	p.mustPeer()
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
// behind it, stored through the window's translation. Without one, a
// landing of zeros alone stores nothing and any other panics before it
// touches memory.
func (p *Port) land(r Region, off int, hdr, data []byte) {
	t := p.inbound[r].trans
	if t == nil && (len(hdr) > 0 || len(data) > 0 && !mem.IsZeroSource(data)) {
		panic(fmt.Sprintf("ntb: copy landing of [%d,%d) into %s's %v window, which has no translation",
			off, off+len(hdr)+len(data), p.Name(), r))
	}
	p.covers(r, off, len(hdr)+len(data))
	if t != nil {
		t.Land(off, hdr, data)
	}
}

// lend is how a stop-and-wait chunk lands (CPULend, Engine.LendWait):
// the paper's receiver copies every chunk out of the window before its
// ACK releases the window (PROTOCOL.md §2), so the window need not hold
// a copy of its own. Until the sender's Reclaim, InboundRange serves the
// first len(data) bytes of window r from data itself, the sender's
// buffer, and the window's translation is not touched. A loan starts at the window's first byte, where every stop-and-wait
// chunk lands. One loan per window may be outstanding, no landing may
// overlap it, and Snapshot and Restore refuse a port that holds one.
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

// assertQuiet panics while the DMA engine has work or any window of
// the port is lent (the bytes are the sender's): such a port can be
// neither captured nor recycled.
func (p *Port) assertQuiet(op string) {
	p.dma.assertIdle(op)
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
// transfer time. Port.DMA builds it and its process starts on the first
// descriptor, so an adapter whose engine is never rung holds neither.
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
// nor recycled. An engine never built (nil) is idle. The warm job pool
// survives a restore.
func (e *Engine) assertIdle(op string) {
	if e != nil && (e.busy != 0 || e.queue.Len() != 0) {
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

// Package driver is the software layer between the NTB device model and
// the OpenSHMEM runtime, mirroring the role of the Linux PEX 8x NTB
// device driver in the paper's stack.
//
// It provides three things:
//
//   - Endpoint: per-port doorbell vector demultiplexing (the interrupt
//     handler that routes each doorbell bit to a registered callback);
//   - Info: the transfer-information record the paper exchanges through
//     the eight 32-bit ScratchPad registers (source and destination host
//     Ids, symmetric-heap offset, size, send/receive kind);
//   - TxChannel: a one-direction, stop-and-wait bulk sender that moves one
//     chunk into the peer's inbound window (by DMA or programmed I/O),
//     publishes the Info record, rings the matching doorbell vector, and
//     waits for the receiver's ACK doorbell before reusing the window and
//     scratchpads.
package driver

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/ntb"
	"repro/internal/sim"
)

// Doorbell vector assignments. The first four are the paper's
// (§III-B.1); VecAck is the flow-control return signal that releases the
// sender's window and scratchpads for the next chunk.
const (
	VecPut          = 0 // DOORBELL_DMAPUT: a put (or forwarded) chunk landed
	VecGet          = 1 // DOORBELL_DMAGET: a get request or get data chunk landed
	VecBarrierStart = 2 // DOORBELL_BARRIER_START
	VecBarrierEnd   = 3 // DOORBELL_BARRIER_END
	VecAck          = 4 // chunk consumed; window and spads are free
	numVecs         = 5
)

// Kind tags an Info record with the message type it describes.
type Kind uint8

const (
	// KindPut is a put data chunk to be delivered into the destination
	// PE's symmetric heap.
	KindPut Kind = iota + 1
	// KindGetReq asks the owner PE to send one chunk of symmetric data
	// back to the requester.
	KindGetReq
	// KindGetData is one chunk of get reply data, addressed to the
	// requester's pending get identified by Tag.
	KindGetData
	// KindAMO asks the owner PE to perform an atomic memory operation on
	// its symmetric heap (our scratchpad-only extension; no window data).
	KindAMO
	// KindAMOReply returns the fetched value of an AMO to the requester.
	KindAMOReply
	// KindBarrierCtl carries a round-tagged synchronisation token for the
	// alternative (centralised / dissemination) barrier algorithms.
	KindBarrierCtl
)

func (k Kind) String() string {
	switch k {
	case KindPut:
		return "put"
	case KindGetReq:
		return "get-req"
	case KindGetData:
		return "get-data"
	case KindAMO:
		return "amo"
	case KindAMOReply:
		return "amo-reply"
	case KindBarrierCtl:
		return "barrier-ctl"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// vector returns the doorbell vector a message kind is announced on.
// Get requests and replies travel on the DMAGET vector, everything else
// on DMAPUT, matching the paper's two data interrupt sources.
func (k Kind) vector() int {
	if k == KindGetReq || k == KindGetData {
		return VecGet
	}
	return VecPut
}

// Dir is the ring direction a message travels in. The paper routes all
// data rightward (toward increasing host Ids); get replies travel back
// leftward along the request's path.
type Dir uint8

const (
	// DirRight moves toward increasing host Ids.
	DirRight Dir = iota
	// DirLeft moves toward decreasing host Ids.
	DirLeft
)

func (d Dir) String() string {
	if d == DirLeft {
		return "left"
	}
	return "right"
}

// MaxHosts is the largest ring the Info header word can address: the
// packed header carries 11 bits per host Id (see the layout below), so
// worlds scale to 2047 hosts without widening the record beyond its
// seven scratchpad registers.
const MaxHosts = 1<<11 - 1

// Info is the transfer-information record exchanged through scratchpads.
// It packs into seven 32-bit registers; the eighth is reserved for the
// boot-time host-Id/BAR exchange.
//
// The header register packs, LSB first: Kind (6 bits), Region (2 bits),
// Dir (1 bit), one spare bit, Src (11 bits), Dst (11 bits). Host Ids got
// 11 bits each — not the byte they historically occupied — so rings
// larger than 256 hosts stay addressable.
type Info struct {
	Kind   Kind
	Src    uint16     // host Id of the original source PE
	Dst    uint16     // host Id of the final destination PE
	Region ntb.Region // inbound window the chunk landed in
	Dir    Dir        // ring direction the message is travelling
	Size   uint32     // payload bytes in the window; zero for a message that carries none
	SymOff uint64     // symmetric-heap offset (put target / get source)
	Tag    uint32     // request identity for get/AMO replies
	Aux    uint64     // chunk offset within the request, or AMO operand
}

// headerWord packs the kind/region/dir/src/dst fields into the 32-bit
// header register.
func (in *Info) headerWord() uint32 {
	return uint32(in.Kind)&0x3F | uint32(in.Region)&0x3<<6 | uint32(in.Dir)&0x1<<8 |
		uint32(in.Src)&0x7FF<<10 | uint32(in.Dst)&0x7FF<<21
}

// unpackHeader fills the fields encoded in the header register.
func (in *Info) unpackHeader(header uint32) {
	in.Kind = Kind(header & 0x3F)
	in.Region = ntb.Region(header >> 6 & 0x3)
	in.Dir = Dir(header >> 8 & 0x1)
	in.Src = uint16(header >> 10 & 0x7FF)
	in.Dst = uint16(header >> 21 & 0x7FF)
}

// spad indices used by the Info codec and boot exchange.
const (
	spadHeader = 0
	spadSize   = 1
	spadOffLo  = 2
	spadOffHi  = 3
	spadTag    = 4
	spadAuxLo  = 5
	spadAuxHi  = 6
	// SpadBoot is reserved for the fabric boot handshake.
	SpadBoot = 7
)

// writeTo publishes the record into the peer's scratchpads (seven posted
// MMIO writes across the link).
func (in *Info) writeTo(p *sim.Proc, port *ntb.Port) {
	port.PeerSpadWrite(p, spadHeader, in.headerWord())
	port.PeerSpadWrite(p, spadSize, in.Size)
	port.PeerSpadWrite(p, spadOffLo, uint32(in.SymOff))
	port.PeerSpadWrite(p, spadOffHi, uint32(in.SymOff>>32))
	port.PeerSpadWrite(p, spadTag, in.Tag)
	port.PeerSpadWrite(p, spadAuxLo, uint32(in.Aux))
	port.PeerSpadWrite(p, spadAuxHi, uint32(in.Aux>>32))
}

// ReadInfo decodes the record from the local scratchpads (seven local
// register reads).
func ReadInfo(p *sim.Proc, port *ntb.Port) Info {
	in := Info{
		Size:   port.SpadRead(p, spadSize),
		SymOff: uint64(port.SpadRead(p, spadOffLo)) | uint64(port.SpadRead(p, spadOffHi))<<32,
		Tag:    port.SpadRead(p, spadTag),
		Aux:    uint64(port.SpadRead(p, spadAuxLo)) | uint64(port.SpadRead(p, spadAuxHi))<<32,
	}
	in.unpackHeader(port.SpadRead(p, spadHeader))
	return in
}

// Endpoint wraps one port with doorbell-vector dispatch. Handlers run in
// interrupt (scheduler) context and must not block; they typically push
// work onto a service thread's queue.
type Endpoint struct {
	Port     *ntb.Port
	handlers [16]sim.Ticker // by vector; Tick's argument is the vector
}

// NewEndpoint installs the demultiplexing ISR on port.
func NewEndpoint(port *ntb.Port) *Endpoint {
	e := new(Endpoint)
	e.init(port)
	return e
}

// NewEndpoints builds one endpoint per port of a slab, in one slab:
// endpoint i serves ports[i].
func NewEndpoints(ports []ntb.Port) []Endpoint {
	eps := make([]Endpoint, len(ports))
	for i := range eps {
		eps[i].init(&ports[i])
	}
	return eps
}

// init makes e port's interrupt handler.
func (e *Endpoint) init(port *ntb.Port) {
	e.Port = port
	port.SetInterruptTarget(e)
}

// Tick implements sim.Ticker as the port's ISR: arg carries the doorbell
// bits, and each registered vector among them runs. Not for direct use.
func (e *Endpoint) Tick(arg uint64) {
	bits := uint16(arg)
	e.Port.ClearInISR(bits)
	for v := 0; v < 16; v++ {
		if h := e.handlers[v]; bits&(1<<v) != 0 && h != nil {
			h.Tick(uint64(v))
		}
	}
}

// Handle registers fn for doorbell vector vec.
func (e *Endpoint) Handle(vec int, fn func()) { e.HandleTick(vec, funcTicker(fn)) }

// HandleTick is Handle for a handler that is a sim.Ticker: tk.Tick(vec)
// runs when vec fires, and registering it allocates nothing.
func (e *Endpoint) HandleTick(vec int, tk sim.Ticker) {
	if vec < 0 || vec >= 16 {
		panic(fmt.Sprintf("driver: bad vector %d", vec))
	}
	e.handlers[vec] = tk
}

// funcTicker is a doorbell handler function as a sim.Ticker.
type funcTicker func()

func (f funcTicker) Tick(uint64) { f() }

// Ring rings a doorbell vector on the peer host.
func (e *Endpoint) Ring(p *sim.Proc, vec int) {
	e.Port.PeerDBSet(p, 1<<vec)
}

// Mode selects the data-movement mechanism for a chunk, the axis of the
// paper's DMA-vs-memcpy comparison.
type Mode uint8

const (
	// ModeDMA moves chunks with the adapter's DMA engine.
	ModeDMA Mode = iota
	// ModeCPU moves chunks with programmed I/O (the paper's "memcpy").
	ModeCPU
)

func (m Mode) String() string {
	if m == ModeCPU {
		return "memcpy"
	}
	return "DMA"
}

// Payload is a chunk source: the first N bytes of Buf.
type Payload struct {
	Buf []byte
	N   int
}

// TxChannel serialises one direction of one link. Because a chunk
// occupies the peer's inbound window and the scratchpad bank until the
// receiver ACKs, concurrent senders (the application and the forwarding
// service thread) must take strict turns; the channel provides that.
type TxChannel struct {
	txState // captured by Snapshot, assigned back whole by Restore

	ep   *Endpoint
	par  *model.Params
	mu   sim.Mutex           // released after every send
	acks sim.Queue[struct{}] // Snapshot and Restore assert it drained
}

// txState is a stop-and-wait channel's per-run state: its send tally.
type txState struct {
	sends uint64
}

// NewTxChannel builds the sender side for ep and hooks its ACK vector.
func NewTxChannel(ep *Endpoint, par *model.Params) *TxChannel {
	tx := new(TxChannel)
	tx.init(ep, par)
	return tx
}

// NewTxChannels builds one channel per endpoint of a slab, in one slab:
// channel i sends over eps[i].
func NewTxChannels(eps []Endpoint, par *model.Params) []TxChannel {
	txs := make([]TxChannel, len(eps))
	for i := range txs {
		txs[i].init(&eps[i], par)
	}
	return txs
}

// init readies the channel over ep, named after its port.
func (tx *TxChannel) init(ep *Endpoint, par *model.Params) {
	tx.ep, tx.par = ep, par
	tx.mu.Init(sim.NameOf("tx:", ep.Port))
	tx.acks.Init(sim.NameOf("ack:", ep.Port))
	ep.HandleTick(VecAck, tx)
}

// Tick implements sim.Ticker as the ACK vector's handler: the receiver
// consumed the chunk in flight. Not for direct use.
func (tx *TxChannel) Tick(uint64) { tx.acks.Push(struct{}{}) }

// Sends reports how many chunks the channel has pushed (for tests and
// the trace).
func (tx *TxChannel) Sends() uint64 { return tx.sends }

// SendChunk moves one chunk (payload may be empty for pure-register
// messages) into the peer window named by info.Region, publishes info,
// rings the kind's vector, and waits for the ACK. It blocks the caller
// for the full stop-and-wait cycle. The transfer is priced and traced
// like any DMA descriptor or PIO burst, but the window holds the chunk
// by reference to payload.Buf (a loan, see ntb.Port.Reclaim): the
// receiver copies it out before it ACKs, and the sender reclaims it
// after the ACK, before the next chunk may take the window.
func (tx *TxChannel) SendChunk(p *sim.Proc, info Info, payload Payload, mode Mode) {
	if payload.N > tx.par.WindowSize {
		panic(fmt.Sprintf("driver: chunk %d exceeds window %d", payload.N, tx.par.WindowSize))
	}
	if payload.N > 0 && int(info.Size) != payload.N {
		panic("driver: info.Size disagrees with payload")
	}
	tx.mu.Lock(p)
	if payload.N > 0 {
		data := payload.Buf[:payload.N]
		switch mode {
		case ModeDMA:
			tx.ep.Port.DMA().LendWait(p, info.Region, data)
		case ModeCPU:
			tx.ep.Port.CPULend(p, info.Region, data)
		default:
			panic("driver: unknown mode")
		}
	}
	info.writeTo(p, tx.ep.Port)
	tx.ep.Ring(p, info.Kind.vector())
	tx.acks.Pop(p)
	if payload.N > 0 {
		tx.ep.Port.Reclaim(info.Region)
	}
	tx.sends++
	tx.mu.Unlock()
}

// Ack releases the sender's window and scratchpads after the receiver has
// consumed a chunk. Called by the receiving host's service thread on the
// port the chunk arrived on.
func Ack(p *sim.Proc, port *ntb.Port) {
	port.PeerDBSet(p, 1<<VecAck)
}

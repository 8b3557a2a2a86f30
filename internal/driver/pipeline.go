package driver

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/ntb"
	"repro/internal/sim"
)

// Pipelined transmit protocol — the paper's stated future work
// ("reduction of the latency overhead") implemented.
//
// The paper's protocol is stop-and-wait by construction: each link has a
// single scratchpad bank, so only one information record can be in
// flight, and the sender must hold the window until the ACK releases
// both. This file removes that bottleneck by moving the record into the
// window itself: the data window is divided into S slots, each carrying
// a 64-byte header (the Info record plus a sequence number and a valid
// flag) ahead of its payload. The sender takes a credit, fills the next
// slot, and rings the data doorbell — without waiting; the receiver's
// service thread drains valid slots in sequence order and returns one
// credit per ACK doorbell. Scratchpads are left to the boot exchange.
//
// With S=1 the protocol degenerates to the paper's behaviour; ablation
// A6 sweeps S.

// SlotHeaderBytes is the per-slot header size (Info encoding + seq +
// valid flag, rounded to a cache line).
const SlotHeaderBytes = 64

// Sender is the common face of the stop-and-wait TxChannel and the
// pipelined PipeTx: push one protocol chunk toward the link peer.
type Sender interface {
	// SendChunk delivers info plus payload into the peer's inbound
	// window and returns when the local buffer is reusable. Stop-and-
	// wait implementations also wait for the receiver's ACK; pipelined
	// ones only for a transmit credit and the wire.
	SendChunk(p *sim.Proc, info Info, payload Payload, mode Mode)
}

// TxChannel implements Sender (compile-time check).
var _ Sender = (*TxChannel)(nil)

// header layout within a slot (little-endian 32-bit words):
//
//	word0: valid flag (1) — written last
//	word1: sequence number
//	word2: packed kind/src/dst/region/dir (the Info header word)
//	word3: payload size
//	word4,5: SymOff
//	word6: Tag
//	word7,8: Aux
const (
	hdrValid = iota * 4
	hdrSeq
	hdrInfo
	hdrSize
	hdrOffLo
	hdrOffHi
	hdrTag
	hdrAuxLo
	hdrAuxHi
)

// encodeSlotHeader serialises info into the slot header (excluding the
// valid word, which the receiver's visibility relies on being last).
func encodeSlotHeader(dst []byte, seq uint32, info *Info) {
	le32 := func(off int, v uint32) {
		dst[off] = byte(v)
		dst[off+1] = byte(v >> 8)
		dst[off+2] = byte(v >> 16)
		dst[off+3] = byte(v >> 24)
	}
	le32(hdrSeq, seq)
	le32(hdrInfo, info.headerWord())
	le32(hdrSize, info.Size)
	le32(hdrOffLo, uint32(info.SymOff))
	le32(hdrOffHi, uint32(info.SymOff>>32))
	le32(hdrTag, info.Tag)
	le32(hdrAuxLo, uint32(info.Aux))
	le32(hdrAuxHi, uint32(info.Aux>>32))
	le32(hdrValid, 1)
}

// decodeSlotHeader parses a slot header; ok reports the valid flag.
func decodeSlotHeader(src []byte) (seq uint32, info Info, ok bool) {
	rd := func(off int) uint32 {
		return uint32(src[off]) | uint32(src[off+1])<<8 |
			uint32(src[off+2])<<16 | uint32(src[off+3])<<24
	}
	if rd(hdrValid) != 1 {
		return 0, Info{}, false
	}
	info = Info{
		Size:   rd(hdrSize),
		SymOff: uint64(rd(hdrOffLo)) | uint64(rd(hdrOffHi))<<32,
		Tag:    rd(hdrTag),
		Aux:    uint64(rd(hdrAuxLo)) | uint64(rd(hdrAuxHi))<<32,
	}
	info.unpackHeader(rd(hdrInfo))
	return rd(hdrSeq), info, true
}

// PipeTx is the sender half of one link direction under the pipelined
// protocol.
type PipeTx struct {
	pipeTxState // captured by Snapshot, assigned back whole by Restore

	ep        *Endpoint
	par       *model.Params
	slots     int                   // pipeline geometry
	slotBytes int                   // pipeline geometry
	credits   sim.Resource          // Snapshot and Restore assert all returned
	mu        sim.Mutex             // serialises slot assignment; released per send
	hdr       [SlotHeaderBytes]byte // slot header staging, overwritten per send
}

// pipeTxState is a pipelined sender's slot cursor, wire sequence and
// send tally.
type pipeTxState struct {
	nextSlot int
	seq      uint32
	sends    uint64
}

// NewPipeTx builds the pipelined sender over ep with the given slot
// count (≥1) and hooks the ACK vector to the credit pool.
func NewPipeTx(ep *Endpoint, par *model.Params, slots int) *PipeTx {
	if slots < 1 {
		panic("driver: pipeline needs at least one slot")
	}
	slotBytes := par.WindowSize / slots
	if slotBytes < SlotHeaderBytes+512 {
		panic(fmt.Sprintf("driver: %d slots leave %d-byte slots, too small", slots, slotBytes))
	}
	tx := &PipeTx{ep: ep, par: par, slots: slots, slotBytes: slotBytes}
	tx.credits.Init(sim.NameOf("pipe-credits:", ep.Port), int64(slots))
	tx.mu.Init(sim.NameOf("pipe-tx:", ep.Port))
	ep.HandleTick(VecAck, tx)
	return tx
}

// Tick implements sim.Ticker as the ACK vector's handler: the receiver
// released a slot, which returns a credit. Not for direct use.
func (tx *PipeTx) Tick(uint64) { tx.credits.Release(1) }

// MaxPayload returns the largest chunk one slot carries.
func (tx *PipeTx) MaxPayload() int { return tx.slotBytes - SlotHeaderBytes }

// Sends reports chunks pushed.
func (tx *PipeTx) Sends() uint64 { return tx.sends }

// SendChunk implements Sender: take a credit, fill the next slot in
// place (header and payload in one wire transfer), ring the kind's
// vector, and return — local completion only.
func (tx *PipeTx) SendChunk(p *sim.Proc, info Info, payload Payload, mode Mode) {
	if payload.N > tx.MaxPayload() {
		panic(fmt.Sprintf("driver: chunk %d exceeds pipeline slot payload %d", payload.N, tx.MaxPayload()))
	}
	if payload.N > 0 && int(info.Size) != payload.N {
		panic("driver: info.Size disagrees with payload")
	}
	tx.credits.Acquire(p, 1)
	tx.mu.Lock(p)
	slot := tx.nextSlot
	tx.nextSlot = (tx.nextSlot + 1) % tx.slots
	tx.seq++
	// Header and payload land in the slot in place, as one transfer.
	encodeSlotHeader(tx.hdr[:], tx.seq, &info)
	data := payload.Buf[:payload.N]
	off := slot * tx.slotBytes
	switch mode {
	case ModeDMA:
		tx.ep.Port.DMA().SubmitWait(p, ntb.Desc{
			Region: ntb.RegionData, Off: off, Hdr: tx.hdr[:], Src: data, Bytes: payload.N,
		})
	case ModeCPU:
		tx.ep.Port.CPUWriteHdr(p, ntb.RegionData, off, tx.hdr[:], data)
	default:
		panic("driver: unknown mode")
	}
	tx.ep.Ring(p, info.Kind.vector())
	tx.sends++
	tx.mu.Unlock()
}

// PipeRx is the receiver half: it drains valid slots in sequence order.
// Its slot ring is the memory the data window translates onto (it
// registers itself with ntb.Port.SetTrans): each slot is a buffer that
// borrows a block from the mem lender on its first landing and grows in
// power-of-two steps up to the slot size, so the ring holds storage only
// for the slots that carried data. Its headers and payloads are read
// from that storage, and ReturnStorage gives it all back.
type PipeRx struct {
	pipeRxState // captured by Snapshot, assigned back whole by Restore

	port      *ntb.Port
	slots     []mem.Buffer // the slot ring, the data window's translation
	slotBytes int          // pipeline geometry
}

// pipeRxState is a pipelined receiver's in-order cursor: the wire
// sequence it accepts next.
type pipeRxState struct {
	expect uint32
}

// NewPipeRx builds the receiver state for port (same geometry as the
// peer's PipeTx) and points the port's data window at its slot ring.
func NewPipeRx(port *ntb.Port, par *model.Params, slots int) *PipeRx {
	slotBytes := par.WindowSize / slots
	rx := &PipeRx{port: port, slots: mem.NewBuffers(slots, slotBytes), slotBytes: slotBytes}
	port.SetTrans(ntb.RegionData, rx)
	return rx
}

// slot locates [off, off+n) of the data window: the slot holding it and
// the offset within the slot. Every transfer lies inside one slot; one
// crossing a slot boundary, or lying past the last slot, panics.
func (rx *PipeRx) slot(off, n int) (*mem.Buffer, int) {
	s, in := off/rx.slotBytes, off%rx.slotBytes
	if off < 0 || s >= len(rx.slots) || in+n > rx.slotBytes {
		panic(fmt.Sprintf("driver: data window access [%d,%d) crosses a %d-byte slot", off, off+n, rx.slotBytes))
	}
	return &rx.slots[s], in
}

// Land implements ntb.Target: a transfer into the data window is stored
// in the slot it lies in.
func (rx *PipeRx) Land(off int, hdr, data []byte) {
	b, in := rx.slot(off, len(hdr)+len(data))
	b.Land(in, hdr, data)
}

// Range implements ntb.Target: bytes [off, off+n) of the slot they lie in.
func (rx *PipeRx) Range(off, n int) []byte {
	b, in := rx.slot(off, n)
	return b.Range(in, n)
}

// head returns the window offset of the slot the next in-order message
// lands in: wire sequence s always lands in slot (s-1) mod slots,
// because PipeTx advances its slot cursor and its sequence together, so
// the message after expect is in slot expect mod slots.
func (rx *PipeRx) head() int { return int(rx.expect%uint32(len(rx.slots))) * rx.slotBytes }

// Next returns the next in-order message, if one is ready: its Info, the
// payload (valid until Release), and true. A slot nothing landed in
// reads as the zero source, which decodes as invalid, so polling an idle
// ring holds no storage. The caller must Release the slot after copying
// the payload out.
func (rx *PipeRx) Next(p *sim.Proc) (Info, []byte, bool) {
	off := rx.head()
	seq, info, ok := decodeSlotHeader(rx.Range(off, SlotHeaderBytes))
	if !ok || seq != rx.expect+1 {
		return Info{}, nil, false
	}
	p.Sleep(rx.port.Par().LocalMMIO) // header inspection
	return info, rx.Range(off+SlotHeaderBytes, int(info.Size)), true
}

// Release invalidates the just-consumed slot and returns a credit to the
// sender.
func (rx *PipeRx) Release(p *sim.Proc) {
	hdr := rx.Range(rx.head(), SlotHeaderBytes)
	if seq, _, ok := decodeSlotHeader(hdr); !ok || seq != rx.expect+1 {
		panic(fmt.Sprintf("driver: release on %s with no message %d in its slot", rx.port.Name(), rx.expect+1))
	}
	hdr[hdrValid] = 0
	rx.expect++
	rx.port.PeerDBSet(p, 1<<VecAck)
}

// Resident reports the bytes of storage the slot ring holds.
func (rx *PipeRx) Resident() int {
	n := 0
	for i := range rx.slots {
		n += rx.slots[i].Resident()
	}
	return n
}

// ReturnStorage clears every slot and gives its block back to the mem
// lender: the ring reads as zeros and holds no storage.
func (rx *PipeRx) ReturnStorage() {
	for i := range rx.slots {
		rx.slots[i].ReturnStorage()
	}
}

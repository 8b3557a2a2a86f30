package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/driver"
	"repro/internal/mem"
	"repro/internal/sim"
)

// handle implements the Fig 5 decision tree for one message delivered to
// this PE by its fabric link. payload aliases space the PE does not own
// (the sender's buffer, lent to an inbound window under the paper's
// protocol or read directly on a load/store fabric, or a pipeline slot);
// every branch copies what it needs out before calling ack, because ack
// lets the sender reuse the space (TestPutHandlerCopiesBeforeItsAck). Transit
// traffic never reaches here — store-and-forward relaying is the link's
// business (the ring's bypass path).
func (pe *PE) handle(p *sim.Proc, info driver.Info, payload []byte, ack func(*sim.Proc)) {
	if int(info.Dst) != pe.id {
		panic(fmt.Sprintf("core: pe %d delivered a message addressed to pe %d", pe.id, info.Dst))
	}

	switch info.Kind {
	case driver.KindPut:
		// "Destination is me": copy from the incoming window into the
		// symmetric heap at the carried offset.
		pe.checkHeapRange(SymAddr(info.SymOff), int(info.Size))
		p.Sleep(sim.BytesAt(int(info.Size), pe.par.MemcpyBW))
		pe.writeHeapFrom(payload, SymAddr(info.SymOff))
		ack(p)
		pe.heapWrite.Broadcast()

	case driver.KindGetReq:
		// I own the requested data: stage the chunk from the symmetric
		// heap and send it back the way the request came. A range nobody
		// wrote goes back as the zero source, staged nowhere.
		off, n := unpackGetAux(info.Aux)
		pe.checkHeapRange(SymAddr(info.SymOff+uint64(off)), n)
		p.Sleep(sim.BytesAt(n, pe.par.MemcpyBW))
		var data []byte
		if from := int64(info.SymOff) + int64(off); pe.heap.ZeroRange(from, n) {
			data = mem.Zeros(n)
		} else {
			data = pe.link.GetBuf(n)
			pe.heap.Read(from, data)
		}
		ack(p)
		reply := driver.Info{
			Kind:   driver.KindGetData,
			Src:    uint16(pe.id),
			Dst:    info.Src,
			Size:   uint32(n),
			SymOff: info.SymOff,
			Tag:    info.Tag,
			Aux:    packGetAux(off, n),
		}
		pe.link.Reply(p, info, reply, data)

	case driver.KindGetData:
		// A chunk of my own pending get arrived.
		req := pe.pending[info.Tag]
		if req == nil {
			panic(fmt.Sprintf("core: pe %d got data for unknown tag %d", pe.id, info.Tag))
		}
		off, n := unpackGetAux(info.Aux)
		p.Sleep(sim.BytesAt(n, pe.par.MemcpyBW))
		if dst := req.buf[off : off+uint64(n)]; mem.IsZeroSource(payload) {
			clear(dst)
		} else {
			copy(dst, payload[:n])
		}
		ack(p)
		req.arrived += n
		req.cond.Broadcast()

	case driver.KindAMO:
		// Execute the atomic at the owner (our AMO extension): both
		// operands ride in the 16-byte window payload.
		var operands [16]byte
		copy(operands[:], payload[:info.Size])
		ack(p)
		old := pe.applyAMO(p, info, operands)
		reply := driver.Info{
			Kind: driver.KindAMOReply,
			Src:  uint16(pe.id),
			Dst:  info.Src,
			Tag:  info.Tag,
			Aux:  old,
		}
		pe.link.Reply(p, info, reply, nil)
		pe.heapWrite.Broadcast()

	case driver.KindAMOReply:
		req := pe.pending[info.Tag]
		if req == nil {
			panic(fmt.Sprintf("core: pe %d got AMO reply for unknown tag %d", pe.id, info.Tag))
		}
		ack(p)
		req.value = info.Aux
		req.replied = true
		req.cond.Broadcast()

	case driver.KindBarrierCtl:
		ack(p)
		if pe.ctl == nil {
			pe.ctl = make(map[uint32]int)
		}
		pe.ctl[info.Tag]++
		pe.ctlCond.Broadcast()

	default:
		panic(fmt.Sprintf("core: pe %d received unknown kind %v", pe.id, info.Kind))
	}
}

// packGetAux packs a get chunk's (offset, length) into the Aux register
// pair (40 bits of offset, 24 bits of length); unpackGetAux reverses it.
func packGetAux(off uint64, n int) uint64 {
	return off<<24 | uint64(n)
}

func unpackGetAux(aux uint64) (off uint64, n int) {
	return aux >> 24, int(aux & (1<<24 - 1))
}

// writeHeapFrom copies raw bytes into the symmetric heap and is shared by
// the put delivery path and local puts.
func (pe *PE) writeHeapFrom(src []byte, dst SymAddr) {
	pe.heap.Write(int64(dst), src)
}

// native is the byte order of every multi-byte value the runtime keeps
// in a symmetric heap: the host's own, so the words an AMO, a wait or the
// match table reads agree with the bytes of a typed view (bytesOf) on
// every architecture.
var native = binary.NativeEndian

package core

import (
	"fmt"

	"repro/internal/driver"
	"repro/internal/mem"
	"repro/internal/sim"
)

// PutBytes is shmem_putmem: copy src into target's symmetric object at
// dst. It is one-sided and locally blocking — it returns when the local
// buffer is reusable (every chunk handed to the first-hop neighbour),
// not when the remote heap is updated; multi-hop delivery continues
// asynchronously through the bypass path. That is why the paper's Put
// latency barely depends on hop count.
func (pe *PE) PutBytes(p *sim.Proc, target int, dst SymAddr, src []byte) {
	pe.checkLive()
	pe.checkPeer(target)
	opStart := p.Now()
	defer pe.emitOp(p, "put", target, len(src), opStart)
	p.Sleep(pe.par.PutSoftware)
	pe.stats.Puts++
	pe.stats.PutBytes += uint64(len(src))
	if len(src) == 0 {
		return
	}
	// src is a host buffer entering the model: each all-zero run of it
	// (mem.ZeroOr) travels as the zero source, never copied or staged.
	if target == pe.id {
		pe.checkHeapRange(dst, len(src))
		p.Sleep(sim.BytesAt(len(src), pe.par.MemcpyBW))
		pe.heap.Write(int64(dst), mem.ZeroOr(src))
		pe.heapWrite.Broadcast()
		return
	}
	for off := 0; off < len(src); off += pe.par.PutChunk {
		n := len(src) - off
		if n > pe.par.PutChunk {
			n = pe.par.PutChunk
		}
		info := driver.Info{
			Kind:   driver.KindPut,
			Src:    uint16(pe.id),
			Dst:    uint16(target),
			Size:   uint32(n),
			SymOff: uint64(dst) + uint64(off),
		}
		pe.link.Send(p, info, driver.Payload{Buf: mem.ZeroOr(src[off : off+n]), N: n})
		pe.stats.ChunksSent++
	}
}

// GetBytes is shmem_getmem: copy the target PE's symmetric object at src
// into the local buffer dst. Gets are fully blocking: each chunk is
// requested from the owner and travels back along the reverse ring path,
// so latency grows with hop count — the asymmetry Fig 9 shows.
func (pe *PE) GetBytes(p *sim.Proc, target int, src SymAddr, dst []byte) {
	pe.checkLive()
	pe.checkPeer(target)
	opStart := p.Now()
	defer pe.emitOp(p, "get", target, len(dst), opStart)
	p.Sleep(pe.par.GetSoftware)
	pe.stats.Gets++
	pe.stats.GetBytes += uint64(len(dst))
	if len(dst) == 0 {
		return
	}
	if target == pe.id {
		pe.checkHeapRange(src, len(dst))
		p.Sleep(sim.BytesAt(len(dst), pe.par.MemcpyBW))
		pe.heap.Read(int64(src), dst)
		return
	}
	tag := pe.newTag()
	req := &pendingReq{buf: dst, cond: sim.NewCond(fmt.Sprintf("get:%d:%d", pe.id, tag))}
	pe.addPending(tag, req)
	defer delete(pe.pending, tag)
	for off := 0; off < len(dst); off += pe.par.GetChunk {
		n := len(dst) - off
		if n > pe.par.GetChunk {
			n = pe.par.GetChunk
		}
		info := driver.Info{
			Kind:   driver.KindGetReq,
			Src:    uint16(pe.id),
			Dst:    uint16(target),
			SymOff: uint64(src),
			Tag:    tag,
			Aux:    packGetAux(uint64(off), n),
		}
		pe.link.Send(p, info, driver.Payload{})
		pe.stats.ChunksSent++
		for req.arrived < off+n {
			req.cond.Wait(p)
		}
		p.Sleep(pe.par.AppWake)
	}
}

// SignalOp selects how PutSignal updates the signal word.
type SignalOp int

const (
	// SignalSet stores the signal value.
	SignalSet SignalOp = iota
	// SignalAdd adds the signal value.
	SignalAdd
)

// PutSignal is shmem_putmem_signal: copy src into target's symmetric
// object at dst and then update the 8-byte signal word at sig, with the
// guarantee that the signal update becomes visible at the target only
// after all of the data. The guarantee is structural: the signal rides
// the same FIFO ring path as the final data chunk, and every stage
// (transmit channel, relay queue) preserves order.
//
// A consumer pairs it with WaitUntilInt64 on the signal word, replacing
// the put+fence+flag-put idiom.
func (pe *PE) PutSignal(p *sim.Proc, target int, dst SymAddr, src []byte, sig SymAddr, op SignalOp, val int64) {
	pe.PutBytes(p, target, dst, src)
	switch op {
	case SignalAdd:
		// An add must be atomic at the target; route it as an AMO,
		// which also rides the ordered message path.
		pe.AddInt64(p, target, sig, val)
	default:
		var word [8]byte
		native.PutUint64(word[:], uint64(val))
		pe.PutBytes(p, target, sig, word[:])
	}
}

// PutSignalNBI is the non-blocking variant; Quiet provides completion.
func (pe *PE) PutSignalNBI(p *sim.Proc, target int, dst SymAddr, src []byte, sig SymAddr, op SignalOp, val int64) {
	pe.checkLive()
	pe.checkPeer(target)
	pe.spawnNBI(fmt.Sprintf("put-signal-nbi:%d->%d", pe.id, target), func(np *sim.Proc) {
		pe.PutSignal(np, target, dst, src, sig, op, val)
	})
}

// SignalFetch is shmem_signal_fetch: an atomic local read of a signal
// word this PE owns.
func (pe *PE) SignalFetch(p *sim.Proc, sig SymAddr) int64 {
	pe.checkLive()
	pe.checkHeapRange(sig, 8)
	p.Sleep(pe.par.LocalMMIO)
	return pe.peekInt64(sig)
}

// PutBytesNBI is the non-blocking put (shmem_putmem_nbi): it queues the
// transfer and returns immediately; Quiet waits for local completion.
// The source buffer must not be modified until Quiet returns.
func (pe *PE) PutBytesNBI(p *sim.Proc, target int, dst SymAddr, src []byte) {
	pe.checkLive()
	pe.checkPeer(target)
	pe.spawnNBI(fmt.Sprintf("put-nbi:%d->%d", pe.id, target), func(np *sim.Proc) {
		pe.PutBytes(np, target, dst, src)
	})
}

// GetBytesNBI is the non-blocking get (shmem_getmem_nbi). The destination
// buffer contents are undefined until Quiet returns.
func (pe *PE) GetBytesNBI(p *sim.Proc, target int, src SymAddr, dst []byte) {
	pe.checkLive()
	pe.checkPeer(target)
	pe.spawnNBI(fmt.Sprintf("get-nbi:%d<-%d", pe.id, target), func(np *sim.Proc) {
		pe.GetBytes(np, target, src, dst)
	})
}

// spawnNBI runs op on a helper process and tracks it for Quiet.
func (pe *PE) spawnNBI(name string, op func(p *sim.Proc)) {
	pe.outstanding++
	pe.world.Cluster.Sim.Go(name, func(np *sim.Proc) {
		op(np)
		pe.outstanding--
		if pe.outstanding == 0 {
			pe.quietCond.Broadcast()
		}
	})
}

// Quiet is shmem_quiet: block until every non-blocking operation issued
// by this PE has reached the same completion level as its blocking
// counterpart (local completion for puts, data landed for gets).
func (pe *PE) Quiet(p *sim.Proc) {
	pe.checkLive()
	for pe.outstanding > 0 {
		pe.quietCond.Wait(p)
	}
}

// Fence is shmem_fence: order point-to-point delivery of prior puts
// before later ones. Every chunk from this PE to a given target follows
// the same FIFO ring path, so delivery order already matches issue order
// once local completion is reached; Fence therefore reduces to Quiet.
func (pe *PE) Fence(p *sim.Proc) { pe.Quiet(p) }

// Outstanding reports queued non-blocking operations (for tests).
func (pe *PE) Outstanding() int { return pe.outstanding }

package core

import (
	"fmt"

	"repro/internal/sim"
)

// Two-sided messaging over the one-sided fabric.
//
// The paper's introduction frames PGAS as the antidote to message
// passing's rendezvous overheads. To quantify that claim on this fabric
// (extension figure E2), this file implements a small two-sided layer —
// MPI-style tagged Send/Recv — on top of the put/get/AMO machinery, the
// way message passing is actually layered over RDMA networks:
//
//   - the receiver posts a receive by publishing a match entry (tag,
//     source filter, bounce-buffer address) in its symmetric match
//     table;
//   - the sender polls the remote table with gets until a matching entry
//     appears, claims it with a remote compare-and-swap (which
//     arbitrates multiple senders and wildcard receives), puts the
//     payload into the advertised bounce buffer, and marks the entry
//     done with an ordered atomic;
//   - the receiver waits on the entry state, copies the bounce buffer
//     out, and recycles the slot.
//
// Every cross-host step rides the ordered ring protocol, so "done"
// implies the payload is present. The polling and claim round trips are
// the honest price of rendezvous on this hardware — which is the paper's
// point.

// Match-table geometry.
const (
	// RecvSlots is the number of simultaneously posted receives per PE.
	RecvSlots = 16
	// slotWords is the per-entry size: state, tag, srcFilter, bounce
	// address, capacity, actual length.
	slotWords = 6
	slotBytes = slotWords * 8
)

// Entry states. The claim state encodes the claiming sender above the
// low byte so a compare-and-swap arbitrates racing senders.
const (
	slotFree    = 0
	slotPosted  = 1
	slotClaimed = 2
	slotDone    = 3
	// slotReserved marks a slot grabbed by a local Recv that has not
	// finished publishing its entry; remote senders skip it.
	slotReserved = 4
)

// AnySource matches a receive against every sender (MPI_ANY_SOURCE).
const AnySource = -1

// sendPollInterval is the sender's table-polling backoff; sendPollLimit
// bounds how long an unmatched send spins before failing loudly.
const (
	sendPollInterval = 150 * sim.Microsecond
	sendPollLimit    = 20_000 // * interval = 3 virtual seconds
)

// matchTable returns the symmetric base address of pe's match table,
// allocating it on first use. The allocation happens identically on
// every PE the first time any of them touches the two-sided layer
// during initPE, so the offset is symmetric.
func (pe *PE) matchTableAddr() SymAddr {
	if !pe.matchTableReady {
		panic(fmt.Sprintf("core: pe %d used Send/Recv without a match table; construct the world with two-sided support (it is initialised in shmem_init)", pe.id))
	}
	return pe.matchTable
}

// initMatchTable carves the match table out of the symmetric heap and
// zeroes it. Called from initPE on every PE, so the address is
// symmetric.
func (pe *PE) initMatchTable(p *sim.Proc) {
	addr, err := pe.heap.Alloc(RecvSlots * slotBytes)
	if err != nil {
		panic(fmt.Sprintf("core: pe %d cannot allocate match table: %v", pe.id, err))
	}
	pe.heap.Zero(addr, RecvSlots*slotBytes)
	pe.matchTable = SymAddr(addr)
	pe.matchTableReady = true
}

func slotAddr(table SymAddr, slot, word int) SymAddr {
	return table + SymAddr(slot*slotBytes+word*8)
}

// Recv posts a tagged receive and blocks until a matching Send
// delivers. src is a specific PE or AnySource. It returns the actual
// message length, which must not exceed len(buf). Messages from one
// sender with equal tags are delivered in send order (the claim protocol
// serialises them).
func (pe *PE) Recv(p *sim.Proc, src int, tag int64, buf []byte) int {
	pe.checkLive()
	if src != AnySource {
		pe.checkPeer(src)
	}
	table := pe.matchTableAddr()
	// Find a free local slot and reserve it in the same instant, so
	// concurrent local receives (helper processes) cannot double-book
	// it while this one is still publishing.
	slot := -1
	for s := 0; s < RecvSlots; s++ {
		if pe.peekInt64(slotAddr(table, s, 0)) == slotFree {
			pe.pokeInt64(slotAddr(table, s, 0), slotReserved)
			slot = s
			break
		}
	}
	if slot < 0 {
		panic(fmt.Sprintf("core: pe %d exceeded %d posted receives", pe.id, RecvSlots))
	}
	bounce, err := pe.heap.Alloc(max(len(buf), 8))
	if err != nil {
		panic(fmt.Sprintf("core: pe %d cannot allocate bounce buffer: %v", pe.id, err))
	}
	defer func() {
		if err := pe.heap.Free(bounce); err != nil {
			panic(err)
		}
	}()

	// Publish the entry; state last, so a sender's get never observes a
	// half-written entry (the service thread snapshots the heap).
	pe.pokeInt64(slotAddr(table, slot, 1), tag)
	pe.pokeInt64(slotAddr(table, slot, 2), int64(src))
	pe.pokeInt64(slotAddr(table, slot, 3), int64(bounce))
	pe.pokeInt64(slotAddr(table, slot, 4), int64(len(buf)))
	pe.pokeInt64(slotAddr(table, slot, 5), 0)
	p.Sleep(pe.par.PutSoftware)
	pe.pokeInt64(slotAddr(table, slot, 0), slotPosted)
	pe.heapWrite.Broadcast()

	// Wait for completion, then collect.
	pe.WaitUntilInt64(p, slotAddr(table, slot, 0), CmpEQ, slotDone)
	n := int(pe.peekInt64(slotAddr(table, slot, 5)))
	p.Sleep(sim.BytesAt(n, pe.par.MemcpyBW))
	pe.heap.Read(int64(bounce), buf[:n])
	pe.pokeInt64(slotAddr(table, slot, 0), slotFree)
	return n
}

// Send delivers data to dst's receive posted with a matching tag,
// blocking until the receiver's bounce buffer holds the payload. It
// panics if no matching receive appears within the poll limit (a
// two-sided deadlock).
func (pe *PE) Send(p *sim.Proc, dst int, tag int64, data []byte) {
	pe.checkLive()
	pe.checkPeer(dst)
	if dst == pe.id {
		panic(fmt.Sprintf("core: pe %d self-send is not supported", pe.id))
	}
	table := pe.matchTableAddr() // same symmetric offset on dst
	snapshot := make([]byte, RecvSlots*slotBytes)
	for attempt := 0; ; attempt++ {
		if attempt >= sendPollLimit {
			panic(fmt.Sprintf("core: pe %d send(tag=%d) to pe %d found no matching receive", pe.id, tag, dst))
		}
		pe.GetBytes(p, dst, table, snapshot)
		for s := 0; s < RecvSlots; s++ {
			base := s * slotBytes
			state := int64(native.Uint64(snapshot[base:]))
			etag := int64(native.Uint64(snapshot[base+8:]))
			srcF := int64(native.Uint64(snapshot[base+16:]))
			capacity := int64(native.Uint64(snapshot[base+32:]))
			if state != slotPosted || etag != tag {
				continue
			}
			if srcF != AnySource && srcF != int64(pe.id) {
				continue
			}
			if int64(len(data)) > capacity {
				panic(fmt.Sprintf("core: pe %d send of %d bytes overflows receive capacity %d", pe.id, len(data), capacity))
			}
			// Claim the slot; losing the race just means rescanning.
			claim := int64(slotClaimed) | int64(pe.id+1)<<8
			if pe.CompareSwapInt64(p, dst, slotAddr(table, s, 0), slotPosted, claim) != slotPosted {
				continue
			}
			bounce := SymAddr(native.Uint64(snapshot[base+24:]))
			if len(data) > 0 {
				pe.PutBytes(p, dst, bounce, data)
			}
			// Ordered completion: length then state ride the same path
			// as the data.
			pe.SetInt64(p, dst, slotAddr(table, s, 5), int64(len(data)))
			pe.SetInt64(p, dst, slotAddr(table, s, 0), slotDone)
			return
		}
		p.Sleep(sendPollInterval)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

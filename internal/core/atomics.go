package core

import (
	"fmt"
	"math"

	"repro/internal/driver"
	"repro/internal/sim"
)

// Atomic memory operations. OpenSHMEM requires remote atomics on
// symmetric data; the paper lists them among the essential features but
// does not describe a hardware path for them (PEX NTB has no remote
// atomic TLPs). Our design — documented in DESIGN.md — executes every AMO
// at the owner PE's service thread: the request rides the ordinary
// message path with its operands in a 16-byte payload, the owner applies
// it between data deliveries (which serialises all atomics on a given
// host), and the old value returns like a one-element get. Self-targeted
// AMOs apply directly, which is safe for the same reason: the service
// thread and the application never run concurrently on the virtual
// processor.

// AMOOp identifies an atomic operation.
type AMOOp uint8

const (
	// AMOFetch returns the current value.
	AMOFetch AMOOp = iota + 1
	// AMOSet stores operand1, returning the old value.
	AMOSet
	// AMOAdd adds operand1, returning the old value (fetch-add).
	AMOAdd
	// AMOSwap stores operand1 and returns the old value.
	AMOSwap
	// AMOCSwap stores operand2 if the current value equals operand1,
	// returning the old value either way.
	AMOCSwap
	// AMOAnd, AMOOr, AMOXor apply the bitwise op with operand1,
	// returning the old value.
	AMOAnd
	AMOOr
	AMOXor
)

func (op AMOOp) String() string {
	switch op {
	case AMOFetch:
		return "fetch"
	case AMOSet:
		return "set"
	case AMOAdd:
		return "add"
	case AMOSwap:
		return "swap"
	case AMOCSwap:
		return "cswap"
	case AMOAnd:
		return "and"
	case AMOOr:
		return "or"
	case AMOXor:
		return "xor"
	default:
		return fmt.Sprintf("amo(%d)", uint8(op))
	}
}

// amoWidth is the operand width; the runtime supports the OpenSHMEM
// 32- and 64-bit AMO type classes.
type amoWidth uint8

const (
	width32 amoWidth = 4
	width64 amoWidth = 8
)

// applyAMO executes an AMO at the owner. operands carries
// (operand1, operand2) little-endian. Returns the old value, widened.
func (pe *PE) applyAMO(p *sim.Proc, info driver.Info, operands [16]byte) uint64 {
	op := AMOOp(info.Aux & 0xFF)
	w := amoWidth(info.Aux >> 8 & 0xFF)
	pe.checkHeapRange(SymAddr(info.SymOff), int(w))
	p.Sleep(pe.par.LocalMMIO) // read-modify-write cost at the owner
	o1 := native.Uint64(operands[0:8])
	o2 := native.Uint64(operands[8:16])

	var buf [8]byte
	pe.heap.Read(int64(info.SymOff), buf[:w])
	var old uint64
	if w == width32 {
		old = uint64(native.Uint32(buf[:4]))
	} else {
		old = native.Uint64(buf[:8])
	}

	apply := true
	var next uint64
	switch op {
	case AMOFetch:
		apply = false
	case AMOSet, AMOSwap:
		next = o1
	case AMOAdd:
		next = old + o1
	case AMOCSwap:
		if old == o1 {
			next = o2
		} else {
			apply = false
		}
	case AMOAnd:
		next = old & o1
	case AMOOr:
		next = old | o1
	case AMOXor:
		next = old ^ o1
	default:
		panic(fmt.Sprintf("core: pe %d unknown AMO op %v", pe.id, op))
	}
	if apply {
		if w == width32 {
			native.PutUint32(buf[:4], uint32(next))
		} else {
			native.PutUint64(buf[:8], next)
		}
		pe.heap.Write(int64(info.SymOff), buf[:w])
	}
	pe.stats.AMOs++
	return old
}

// amo issues one atomic against target's symmetric object and blocks for
// the old value.
func (pe *PE) amo(p *sim.Proc, target int, addr SymAddr, op AMOOp, w amoWidth, o1, o2 uint64) uint64 {
	pe.checkLive()
	pe.checkPeer(target)
	opStart := p.Now()
	defer pe.emitOp(p, "amo", target, int(w), opStart)
	p.Sleep(pe.par.PutSoftware)
	var operands [16]byte
	native.PutUint64(operands[0:8], o1)
	native.PutUint64(operands[8:16], o2)
	if target == pe.id {
		info := driver.Info{SymOff: uint64(addr), Aux: uint64(op) | uint64(w)<<8}
		old := pe.applyAMO(p, info, operands)
		pe.heapWrite.Broadcast()
		return old
	}
	tag := pe.newTag()
	req := &pendingReq{cond: sim.NewCond(fmt.Sprintf("amo:%d:%d", pe.id, tag))}
	pe.addPending(tag, req)
	defer delete(pe.pending, tag)
	info := driver.Info{
		Kind:   driver.KindAMO,
		Src:    uint16(pe.id),
		Dst:    uint16(target),
		Size:   16,
		SymOff: uint64(addr),
		Tag:    tag,
		Aux:    uint64(op) | uint64(w)<<8,
	}
	pe.link.Send(p, info, driver.Payload{Buf: operands[:], N: 16})
	for !req.replied {
		req.cond.Wait(p)
	}
	p.Sleep(pe.par.AppWake)
	pe.stats.AMOs++
	return req.value
}

// ---- 64-bit API (shmem_int64_atomic_*) ----

// FetchInt64 atomically reads target's symmetric int64 at addr.
func (pe *PE) FetchInt64(p *sim.Proc, target int, addr SymAddr) int64 {
	return int64(pe.amo(p, target, addr, AMOFetch, width64, 0, 0))
}

// SetInt64 atomically stores v.
func (pe *PE) SetInt64(p *sim.Proc, target int, addr SymAddr, v int64) {
	pe.amo(p, target, addr, AMOSet, width64, uint64(v), 0)
}

// FetchAddInt64 atomically adds delta and returns the previous value.
func (pe *PE) FetchAddInt64(p *sim.Proc, target int, addr SymAddr, delta int64) int64 {
	return int64(pe.amo(p, target, addr, AMOAdd, width64, uint64(delta), 0))
}

// AddInt64 atomically adds delta.
func (pe *PE) AddInt64(p *sim.Proc, target int, addr SymAddr, delta int64) {
	pe.amo(p, target, addr, AMOAdd, width64, uint64(delta), 0)
}

// IncInt64 atomically increments.
func (pe *PE) IncInt64(p *sim.Proc, target int, addr SymAddr) {
	pe.AddInt64(p, target, addr, 1)
}

// FetchIncInt64 atomically increments and returns the previous value.
func (pe *PE) FetchIncInt64(p *sim.Proc, target int, addr SymAddr) int64 {
	return pe.FetchAddInt64(p, target, addr, 1)
}

// SwapInt64 atomically stores v and returns the previous value.
func (pe *PE) SwapInt64(p *sim.Proc, target int, addr SymAddr, v int64) int64 {
	return int64(pe.amo(p, target, addr, AMOSwap, width64, uint64(v), 0))
}

// CompareSwapInt64 atomically stores next if the current value equals
// cond, returning the previous value either way.
func (pe *PE) CompareSwapInt64(p *sim.Proc, target int, addr SymAddr, cond, next int64) int64 {
	return int64(pe.amo(p, target, addr, AMOCSwap, width64, uint64(cond), uint64(next)))
}

// AndInt64, OrInt64 and XorInt64 apply bitwise atomics.
func (pe *PE) AndInt64(p *sim.Proc, target int, addr SymAddr, v int64) {
	pe.amo(p, target, addr, AMOAnd, width64, uint64(v), 0)
}

// OrInt64 applies a bitwise-or atomic.
func (pe *PE) OrInt64(p *sim.Proc, target int, addr SymAddr, v int64) {
	pe.amo(p, target, addr, AMOOr, width64, uint64(v), 0)
}

// XorInt64 applies a bitwise-xor atomic.
func (pe *PE) XorInt64(p *sim.Proc, target int, addr SymAddr, v int64) {
	pe.amo(p, target, addr, AMOXor, width64, uint64(v), 0)
}

// ---- 32-bit API ----

// FetchAddInt32 atomically adds delta and returns the previous value.
func (pe *PE) FetchAddInt32(p *sim.Proc, target int, addr SymAddr, delta int32) int32 {
	return int32(pe.amo(p, target, addr, AMOAdd, width32, uint64(uint32(delta)), 0))
}

// FetchInt32 atomically reads.
func (pe *PE) FetchInt32(p *sim.Proc, target int, addr SymAddr) int32 {
	return int32(pe.amo(p, target, addr, AMOFetch, width32, 0, 0))
}

// SetInt32 atomically stores v.
func (pe *PE) SetInt32(p *sim.Proc, target int, addr SymAddr, v int32) {
	pe.amo(p, target, addr, AMOSet, width32, uint64(uint32(v)), 0)
}

// CompareSwapInt32 is the 32-bit compare-and-swap.
func (pe *PE) CompareSwapInt32(p *sim.Proc, target int, addr SymAddr, cond, next int32) int32 {
	return int32(pe.amo(p, target, addr, AMOCSwap, width32, uint64(uint32(cond)), uint64(uint32(next))))
}

// ---- Floating-point atomics ----
//
// OpenSHMEM's extended AMO set gives float/double atomic fetch, set and
// swap (no arithmetic AMOs). They ride the integer machinery by bit
// reinterpretation, which is exactly how hardware implements them.

// FetchFloat64 atomically reads target's symmetric float64 at addr.
func (pe *PE) FetchFloat64(p *sim.Proc, target int, addr SymAddr) float64 {
	return math.Float64frombits(pe.amo(p, target, addr, AMOFetch, width64, 0, 0))
}

// SetFloat64 atomically stores v.
func (pe *PE) SetFloat64(p *sim.Proc, target int, addr SymAddr, v float64) {
	pe.amo(p, target, addr, AMOSet, width64, math.Float64bits(v), 0)
}

// SwapFloat64 atomically stores v and returns the previous value.
func (pe *PE) SwapFloat64(p *sim.Proc, target int, addr SymAddr, v float64) float64 {
	return math.Float64frombits(pe.amo(p, target, addr, AMOSwap, width64, math.Float64bits(v), 0))
}

// FetchFloat32 atomically reads target's symmetric float32 at addr.
func (pe *PE) FetchFloat32(p *sim.Proc, target int, addr SymAddr) float32 {
	return math.Float32frombits(uint32(pe.amo(p, target, addr, AMOFetch, width32, 0, 0)))
}

// SetFloat32 atomically stores v.
func (pe *PE) SetFloat32(p *sim.Proc, target int, addr SymAddr, v float32) {
	pe.amo(p, target, addr, AMOSet, width32, uint64(math.Float32bits(v)), 0)
}

// SwapFloat32 atomically stores v and returns the previous value.
func (pe *PE) SwapFloat32(p *sim.Proc, target int, addr SymAddr, v float32) float32 {
	return math.Float32frombits(uint32(pe.amo(p, target, addr, AMOSwap, width32, uint64(math.Float32bits(v)), 0)))
}

// ---- Distributed locks (shmem_set_lock / clear / test) ----

// lockHome is the PE whose copy of the lock variable arbitrates it, the
// convention used by reference OpenSHMEM implementations.
const lockHome = 0

// SetLock acquires a distributed lock backed by the symmetric int64 at
// addr, spinning with exponential backoff on a remote compare-and-swap.
func (pe *PE) SetLock(p *sim.Proc, addr SymAddr) {
	backoff := sim.Microseconds(2)
	const maxBackoff = sim.Duration(200 * sim.Microsecond)
	for {
		old := pe.CompareSwapInt64(p, lockHome, addr, 0, int64(pe.id)+1)
		if old == 0 {
			return
		}
		p.Sleep(backoff)
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// ClearLock releases a lock held by this PE. Releasing a lock the PE does
// not hold is a usage error and panics without disturbing the lock word.
func (pe *PE) ClearLock(p *sim.Proc, addr SymAddr) {
	token := int64(pe.id) + 1
	old := pe.CompareSwapInt64(p, lockHome, addr, token, 0)
	if old != token {
		panic(fmt.Sprintf("core: pe %d cleared lock it does not hold (owner token %d)", pe.id, old))
	}
}

// TestLock tries to acquire without blocking; it returns true on success
// (note: C shmem_test_lock returns 0 on success).
func (pe *PE) TestLock(p *sim.Proc, addr SymAddr) bool {
	return pe.CompareSwapInt64(p, lockHome, addr, 0, int64(pe.id)+1) == 0
}

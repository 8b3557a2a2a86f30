package core

import (
	"repro/internal/sim"
)

// Collective operations. OpenSHMEM's classic (1.x) collectives operate on
// symmetric source and destination buffers with all PEs participating.
// On the switchless ring they are composed from puts and the ring
// barrier: gather-to-root and fan-out-from-root both degenerate to
// rightward ring traffic, which is the honest cost of this fabric.

// BroadcastBytes copies n bytes of root's symmetric object at addr into
// every other PE's copy. All PEs must call it; it synchronises.
func (pe *PE) BroadcastBytes(p *sim.Proc, root int, addr SymAddr, n int) {
	pe.checkLive()
	pe.checkPeer(root)
	if pe.id == root {
		var buf []byte
		src := pe.readSource(p, addr, n, &buf)
		for t := 0; t < pe.NumPEs(); t++ {
			if t != root {
				pe.PutBytes(p, t, addr, src)
			}
		}
	}
	pe.BarrierAll(p)
}

// BroadcastBytesPipelined is a ring-pipelined broadcast: the payload
// travels once around the ring in chunks, each PE forwarding chunk k to
// its right neighbour while chunk k+1 is still arriving. The linear
// BroadcastBytes pushes n-1 independent transfers through the root's
// first link (each store-and-forwarded separately), so for large
// payloads the pipeline wins on both bandwidth and latency — ablation
// A5 quantifies it. All PEs must call it; it synchronises.
func (pe *PE) BroadcastBytesPipelined(p *sim.Proc, root int, addr SymAddr, n int) {
	pe.checkLive()
	pe.checkPeer(root)
	pe.checkHeapRange(addr, n)
	// Relay unit: several put-chunks per signal, so the per-unit
	// synchronisation cost (application wake-up + signalling atomic)
	// amortises and the relay stage keeps up with the sender.
	chunk := 4 * pe.par.PutChunk
	if chunk > pe.par.WindowSize {
		chunk = pe.par.WindowSize
	}
	chunks := (n + chunk - 1) / chunk
	// Symmetric signal word (identical allocation sequence everywhere).
	sig := pe.MustMalloc(p, 8)
	pe.LocalWrite(p, sig, make([]byte, 8))
	pe.BarrierAll(p)

	right := (pe.id + 1) % pe.NumPEs()
	last := (root - 1 + pe.NumPEs()) % pe.NumPEs() // end of the chain
	// The relay buffer: allocated by the first chunk that holds data, never
	// by one nobody wrote (readSource).
	var buf []byte
	for c := 0; c < chunks; c++ {
		off := c * chunk
		sz := n - off
		if sz > chunk {
			sz = chunk
		}
		if pe.id != root {
			// Wait for chunk c to land (root's or upstream's signal).
			pe.WaitUntilInt64(p, sig, CmpGE, int64(c+1))
		}
		if pe.id != last {
			src := pe.readSource(p, addr+SymAddr(off), sz, &buf)
			pe.PutSignal(p, right, addr+SymAddr(off), src, sig, SignalAdd, 1)
		}
	}
	pe.BarrierAll(p)
	if err := pe.Free(p, sig); err != nil {
		panic(err)
	}
}

// FCollectBytes concatenates every PE's n-byte block at src into each
// PE's (NumPEs*n)-byte symmetric buffer at dst, ordered by PE Id
// (shmem_fcollect). All PEs must call it; it synchronises.
func (pe *PE) FCollectBytes(p *sim.Proc, src, dst SymAddr, n int) {
	pe.checkLive()
	buf := make([]byte, n)
	pe.LocalRead(p, src, buf)
	slot := dst + SymAddr(pe.id*n)
	for t := 0; t < pe.NumPEs(); t++ {
		if t == pe.id {
			pe.LocalWrite(p, slot, buf)
		} else {
			pe.PutBytes(p, t, slot, buf)
		}
	}
	pe.BarrierAll(p)
}

// FCollect is the typed fcollect: every PE's nelems elements at src are
// concatenated in PE order into each PE's NumPEs*nelems-element buffer
// at dst.
func FCollect[T Scalar](p *sim.Proc, pe *PE, dst, src SymAddr, nelems int) {
	pe.FCollectBytes(p, src, dst, nelems*sizeOf[T]())
}

// AllToAllBytes sends each PE's n-byte block i (at src + i*n) to PE i's
// dst + myPE*n slot (shmem_alltoall). All PEs must call it.
func (pe *PE) AllToAllBytes(p *sim.Proc, src, dst SymAddr, n int) {
	pe.checkLive()
	buf := make([]byte, n)
	for t := 0; t < pe.NumPEs(); t++ {
		pe.LocalRead(p, src+SymAddr(t*n), buf)
		slot := dst + SymAddr(pe.id*n)
		if t == pe.id {
			pe.LocalWrite(p, slot, buf)
		} else {
			pe.PutBytes(p, t, slot, buf)
		}
	}
	pe.BarrierAll(p)
}

// ReduceOp names a reduction operator.
type ReduceOp int

const (
	// OpSum adds.
	OpSum ReduceOp = iota
	// OpProd multiplies.
	OpProd
	// OpMin takes the minimum.
	OpMin
	// OpMax takes the maximum.
	OpMax
)

func (op ReduceOp) String() string {
	switch op {
	case OpProd:
		return "prod"
	case OpMin:
		return "min"
	case OpMax:
		return "max"
	default:
		return "sum"
	}
}

func combine[T Scalar](op ReduceOp, a, b T) T {
	switch op {
	case OpProd:
		return a * b
	case OpMin:
		if b < a {
			return b
		}
		return a
	case OpMax:
		if b > a {
			return b
		}
		return a
	default:
		return a + b
	}
}

// Reduce is shmem_TYPE_OP_to_all over all PEs: it element-wise combines
// every PE's nelems-element symmetric vector at src and stores the result
// in every PE's symmetric vector at dst (src and dst may be equal). All
// PEs must call it with identical arguments; it synchronises.
//
// The implementation gathers contributions to PE 0 through a temporary
// symmetric work area (pWrk in standard OpenSHMEM), reduces there, and
// broadcasts the result — all ring traffic.
func Reduce[T Scalar](p *sim.Proc, pe *PE, op ReduceOp, dst, src SymAddr, nelems int) {
	pe.checkLive()
	es := sizeOf[T]()
	n := pe.NumPEs()
	// Symmetric scratch: every PE allocates identically, preserving the
	// same-offset invariant. The barrier keeps any PE from putting into a
	// work area a slower PE has not allocated yet (standard OpenSHMEM
	// sidesteps this with preallocated pWrk; dynamic scratch must sync).
	wrk := pe.MustMalloc(p, n*nelems*es)
	pe.BarrierAll(p)
	defer func() {
		if err := pe.Free(p, wrk); err != nil {
			panic(err)
		}
	}()

	contrib := make([]T, nelems)
	LocalGet(p, pe, src, contrib)
	slot := wrk + SymAddr(pe.id*nelems*es)
	if pe.id == 0 {
		LocalPut(p, pe, slot, contrib)
	} else {
		Put(p, pe, 0, slot, contrib)
	}
	pe.BarrierAll(p) // all contributions landed at PE 0

	if pe.id == 0 {
		acc := make([]T, nelems)
		LocalGet(p, pe, wrk, acc)
		row := make([]T, nelems)
		for t := 1; t < n; t++ {
			LocalGet(p, pe, wrk+SymAddr(t*nelems*es), row)
			for i := range acc {
				acc[i] = combine(op, acc[i], row[i])
			}
		}
		LocalPut(p, pe, dst, acc)
		for t := 1; t < n; t++ {
			Put(p, pe, t, dst, acc)
		}
	}
	pe.BarrierAll(p) // result visible everywhere
}

// Collect gathers variable-size blocks in PE order. Each PE contributes
// nelems elements from src; every PE receives the concatenation (whose
// total the caller must size dst for). It synchronises twice: once to
// agree on offsets (via an fcollect of the counts) and once for the data.
func Collect[T Scalar](p *sim.Proc, pe *PE, dst, src SymAddr, nelems int) {
	pe.checkLive()
	es := sizeOf[T]()
	n := pe.NumPEs()
	counts := pe.MustMalloc(p, n*8)
	pe.BarrierAll(p)
	defer func() {
		if err := pe.Free(p, counts); err != nil {
			panic(err)
		}
	}()
	LocalPut(p, pe, counts+SymAddr(pe.id*8), []int64{int64(nelems)})
	pe.FCollectBytes(p, counts+SymAddr(pe.id*8), counts, 8)

	all := make([]int64, n)
	LocalGet(p, pe, counts, all)
	offset := 0
	for t := 0; t < pe.id; t++ {
		offset += int(all[t])
	}
	buf := make([]T, nelems)
	LocalGet(p, pe, src, buf)
	slot := dst + SymAddr(offset*es)
	for t := 0; t < n; t++ {
		if t == pe.id {
			LocalPut(p, pe, slot, buf)
		} else {
			Put(p, pe, t, slot, buf)
		}
	}
	pe.BarrierAll(p)
}

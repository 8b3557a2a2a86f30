// Package apps defines, once, the three application kernels the paper's
// introduction motivates for PGAS over NTB: a halo-exchange stencil, a
// ring-rotation (1D SUMMA) matrix multiply and the key exchange of an
// NPB-IS-style bucket sort. They are written only against the public
// ntbshmem API.
//
// Each kernel is a fragment of a PE body: call it on every PE from
// inside ntbshmem.Run (or any world's body). Callers pass the inputs in
// and receive this PE's share of the result as a return value, which
// costs no virtual time and no host copy. Extension figure E3
// (internal/bench) times the kernels and checks cheap invariants;
// examples/{heat1d,matmul,intsort} check the whole result against serial
// references on the host. The op sequence of each kernel is the one E3's
// results/e3.csv was recorded with: changing it moves that file.
package apps

import ntbshmem "repro"

// HeatSpike is Heat1D's initial temperature of the rod's middle cell;
// every other cell starts at zero, so the rod's total stays HeatSpike.
const HeatSpike = 1000

// Alpha is Heat1D's diffusion coefficient (stable for the explicit scheme).
const Alpha = 0.25

// Heat1D diffuses heat along a periodic rod of cells points for steps
// explicit time steps. The rod is split into equal blocks, one per PE.
// Each step every PE puts its boundary cells into its ring neighbours'
// halo slots, barriers, updates its block and barriers again. A sum
// Reduce then totals the rod. Heat1D returns this PE's final block and
// that total. cells must divide evenly among the PEs.
func Heat1D(p *ntbshmem.Proc, pe *ntbshmem.PE, cells, steps int) (block []float64, total float64) {
	me, n := pe.ID(), pe.NumPEs()
	local := cells / n
	// Layout: [haloL | local cells | haloR], all symmetric.
	field := pe.MustMalloc(p, (local+2)*8)
	u := make([]float64, local+2)
	if i := cells/2 - me*local; i >= 0 && i < local {
		u[i+1] = HeatSpike
	}
	ntbshmem.LocalPut(p, pe, field, u)
	pe.BarrierAll(p)
	left, right := (me-1+n)%n, (me+1)%n
	next := make([]float64, local+2)
	for s := 0; s < steps; s++ {
		ntbshmem.LocalGet(p, pe, field, u)
		// My first cell becomes the left neighbour's right halo, my last
		// the right neighbour's left halo.
		ntbshmem.Put(p, pe, left, field+ntbshmem.SymAddr((local+1)*8), u[1:2])
		ntbshmem.Put(p, pe, right, field, u[local:local+1])
		pe.BarrierAll(p) // halos delivered
		ntbshmem.LocalGet(p, pe, field, u)
		copy(next, u)
		// float64(…) keeps products unfused on every CPU
		// (TestNoFusedMultiplyAdd), so results match amd64's bit for bit.
		for i := 1; i <= local; i++ {
			next[i] = u[i] + float64(Alpha*(u[i-1]-2*u[i]+u[i+1]))
		}
		ntbshmem.LocalPut(p, pe, field, next)
		pe.BarrierAll(p) // everyone finished the step
	}
	sum := pe.MustMalloc(p, 8)
	all := pe.MustMalloc(p, 8)
	pe.BarrierAll(p)
	ntbshmem.LocalGet(p, pe, field, u)
	var mine float64
	for _, v := range u[1 : local+1] {
		mine += v
	}
	ntbshmem.LocalPut(p, pe, sum, []float64{mine})
	ntbshmem.Reduce[float64](p, pe, ntbshmem.OpSum, all, sum, 1)
	var out [1]float64
	ntbshmem.LocalGet(p, pe, all, out[:])
	return u[1 : local+1], out[0]
}

// Matmul multiplies the dim x dim row-major matrices A and B, both
// row-striped across the PEs. Each of the N steps multiplies this PE's A
// panel by the B stripe it holds, then rotates the stripe one hop left
// around the ring: a put into the neighbour's receive buffer, flagged by
// a remote add on its signal word. Matmul returns this PE's stripe of
// the product, rows [ID, ID+1) * dim/N. dim must divide evenly among the
// PEs.
func Matmul(p *ntbshmem.Proc, pe *ntbshmem.PE, A, B []float64, dim int) []float64 {
	me, n := pe.ID(), pe.NumPEs()
	mb := dim / n // stripe height
	stripe := mb * dim
	next := pe.MustMalloc(p, stripe*8) // the B stripe arriving
	sig := pe.MustMalloc(p, 8)         // arrivals so far
	pe.BarrierAll(p)
	aLocal := A[me*stripe : (me+1)*stripe]
	cLocal := make([]float64, stripe)
	bStripe := make([]float64, stripe)
	copy(bStripe, B[me*stripe:(me+1)*stripe])
	left := (me - 1 + n) % n
	for step := 0; step < n; step++ {
		owner := (me + step) % n // whose B stripe this PE holds
		for i := 0; i < mb; i++ {
			for k := 0; k < mb; k++ {
				a := aLocal[i*dim+owner*mb+k]
				for j := 0; j < dim; j++ {
					cLocal[i*dim+j] += float64(a * bStripe[k*dim+j])
				}
			}
		}
		if step == n-1 {
			break
		}
		ntbshmem.Put(p, pe, left, next, bStripe)
		pe.AddInt64(p, left, sig, 1) // ordered behind the stripe
		pe.WaitUntilInt64(p, sig, ntbshmem.CmpGE, int64(step+1))
		ntbshmem.LocalGet(p, pe, next, bStripe)
		pe.BarrierAll(p) // next is drained; safe to reuse as a target
	}
	return cLocal
}

// KeyRange bounds IntSort's keys: each must lie in [0, KeyRange).
const KeyRange = 1 << 16

// IntSort runs the key exchange of an NPB-IS-style bucket sort over each
// PE's keys. PE k owns the keys in [k, k+1) * KeyRange/N, and the last PE
// also owns the remainder. Each PE buckets its keys by owner, and the PEs
// exchange bucket counts with an fcollect. Each bucket is then put into
// its owner's receive area at the offset the counts give, flagged by a
// remote add on the owner's signal word. IntSort returns the keys this PE
// received, grouped by source PE and not sorted.
func IntSort(p *ntbshmem.Proc, pe *ntbshmem.PE, keys []int32) []int32 {
	me, n := pe.ID(), pe.NumPEs()
	width := KeyRange / n
	owner := func(k int32) int { return min(int(k)/width, n-1) }
	// A counting pass sizes every bucket, so all of them share one
	// backing array cut at the counts.
	myCounts := make([]int32, n)
	for _, k := range keys {
		myCounts[owner(k)]++
	}
	buckets := make([][]int32, n)
	backing := make([]int32, len(keys))
	for d, c := range myCounts {
		buckets[d], backing = backing[:0:c], backing[c:]
	}
	for _, k := range keys {
		d := owner(k)
		buckets[d] = append(buckets[d], k)
	}
	// counts[src*n+dst] is the size of src's bucket for dst.
	countsSym := pe.MustMalloc(p, n*n*4)
	ntbshmem.LocalPut(p, pe, countsSym+ntbshmem.SymAddr(me*n*4), myCounts)
	pe.BarrierAll(p)
	pe.FCollectBytes(p, countsSym+ntbshmem.SymAddr(me*n*4), countsSym, n*4)
	counts := make([]int32, n*n)
	ntbshmem.LocalGet(p, pe, countsSym, counts)
	// Symmetric allocations are the same size on every PE, so the receive
	// area fits the largest receiver.
	maxRecv := 1
	for dst := 0; dst < n; dst++ {
		total := 0
		for src := 0; src < n; src++ {
			total += int(counts[src*n+dst])
		}
		maxRecv = max(maxRecv, total)
	}
	recvSym := pe.MustMalloc(p, maxRecv*4)
	sig := pe.MustMalloc(p, 8)
	pe.BarrierAll(p) // every receive area allocated
	for dst := 0; dst < n; dst++ {
		// My segment of dst's receive area follows lower-numbered sources'.
		off := 0
		for src := 0; src < me; src++ {
			off += int(counts[src*n+dst])
		}
		if dst == me {
			ntbshmem.LocalPut(p, pe, recvSym+ntbshmem.SymAddr(off*4), buckets[me])
			continue
		}
		if len(buckets[dst]) > 0 {
			ntbshmem.Put(p, pe, dst, recvSym+ntbshmem.SymAddr(off*4), buckets[dst])
		}
		pe.AddInt64(p, dst, sig, 1) // ordered behind the bucket
	}
	pe.WaitUntilInt64(p, sig, ntbshmem.CmpGE, int64(n-1))
	recvd := 0
	for src := 0; src < n; src++ {
		recvd += int(counts[src*n+me])
	}
	got := make([]int32, recvd)
	ntbshmem.LocalGet(p, pe, recvSym, got)
	return got
}

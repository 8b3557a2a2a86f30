package mem

import (
	"fmt"
	"math/bits"
	"sync"
)

// The block lender. Payload storage — heap pages, the buffers NTB
// windows translate onto (Buffer) and relay staging buffers — is a
// shared resource, as the paper's scattered
// physical chunks are: it comes from one process-wide lender of
// power-of-two blocks and goes back to it when a quiescent world drops
// it (a pooled world at check-in, any world at Restore or Fork). Idle
// worlds therefore park no payload bytes, and a block one world gave
// back backs the next world's writes without allocating.
//
// Every block the lender holds is all zero. A borrower may rely on that
// instead of clearing, so whoever gives a block back clears what it
// dirtied first — the clears a restore does anyway, moved to the moment
// the storage is returned. The zero source is never given back; a heap
// snapshot holds copies, not lent pages.

// minBlockShift sizes the smallest block, 4 KiB.
const minBlockShift = 12

var lender struct {
	sync.Mutex
	free [bits.UintSize - minBlockShift][][]byte // free[c]: blocks of 1<<(c+minBlockShift) bytes
	held int                                     // bytes over every free list
}

// blockClass is the class of the smallest block holding n bytes.
func blockClass(n int) int {
	if n <= 1<<minBlockShift {
		return 0
	}
	return bits.Len(uint(n-1)) - minBlockShift
}

// Borrow returns an all-zero block of at least n bytes: the smallest
// free one, split down to the class of most (the most the borrower can
// use) when it is larger, or else a new block of n's class. Its length
// is a power of two of at least 4 KiB, and its capacity equals its
// length. A borrower using fewer bytes slices the block and gives the
// whole of it back (Return extends a slice to its capacity).
func Borrow(n, most int) []byte {
	c, top := blockClass(n), blockClass(max(n, most))
	lender.Lock()
	defer lender.Unlock()
	for k := c; k < len(lender.free); k++ {
		last := len(lender.free[k]) - 1
		if last < 0 {
			continue
		}
		b := lender.free[k][last]
		lender.free[k][last] = nil
		lender.free[k] = lender.free[k][:last]
		for ; k > top; k-- { // keep the lower half, lend the upper one out again
			half := len(b) / 2
			lender.free[k-1] = append(lender.free[k-1], b[half:len(b):len(b)])
			b = b[:half:half]
		}
		lender.held -= len(b)
		return b
	}
	return make([]byte, 1<<(c+minBlockShift))
}

// Return gives a block Borrow lent back, as b[:cap(b)]. Every byte of
// it must be zero again: the caller clears what it dirtied.
func Return(b []byte) {
	b = b[:cap(b)]
	if n := len(b); n < 1<<minBlockShift || n&(n-1) != 0 || IsZeroSource(b) {
		panic(fmt.Sprintf("mem: return of a %d-byte slice that is no lent block", n))
	}
	c := blockClass(len(b))
	lender.Lock()
	lender.free[c] = append(lender.free[c], b)
	lender.held += len(b)
	lender.Unlock()
}

// LenderHeld reports how many bytes of storage the lender holds for the
// next borrower.
func LenderHeld() int {
	lender.Lock()
	defer lender.Unlock()
	return lender.held
}

// DrainLender drops every block the lender holds, so the next borrower
// pays what a fresh process pays.
func DrainLender() {
	lender.Lock()
	defer lender.Unlock()
	clear(lender.free[:])
	lender.held = 0
}

// LenderClean reports whether every block the lender holds is all zero,
// for test suites to check after exercising every path that gives
// storage back: a returner that missed a dirty byte hands it to some
// later borrower, which reads it where it expects zeros.
func LenderClean() bool {
	lender.Lock()
	defer lender.Unlock()
	for _, class := range lender.free {
		for _, b := range class {
			if !allZero(b) {
				return false
			}
		}
	}
	return true
}

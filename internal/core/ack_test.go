package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/driver"
	"repro/internal/fabric"
	"repro/internal/sim"
)

// TestPutHandlerCopiesBeforeItsAck holds the stop-and-wait contract the
// lent window rests on (PROTOCOL.md §2): a put chunk reaches its
// destination as the sender's own buffer, which the sender may reuse as
// soon as the ACK comes back, so the delivery handler must copy the
// chunk into the heap before it ACKs. PE 0 puts a random buffer to its
// neighbour and overwrites the buffer the moment the put returns, as
// shmem_putmem lets it; a handler that read its payload after the ACK
// would deliver the overwritten bytes.
func TestPutHandlerCopiesBeforeItsAck(t *testing.T) {
	for _, fc := range []fabricCase{{fabric.KindNTBRing, 3}, {fabric.KindNTBPair, 2}, {fabric.KindPCIeSwitch, 3}} {
		for _, mode := range []driver.Mode{driver.ModeDMA, driver.ModeCPU} {
			t.Run(fmt.Sprintf("%s/%s", fc.name(), mode), func(t *testing.T) {
				w := newFabricWorld(fc.kind, fc.n, Options{Mode: mode})
				size := 2*w.Cluster.Par.PutChunk + 300 // a ragged last chunk
				want := make([]byte, size)
				rand.New(rand.NewSource(7)).Read(want)
				err := w.Run(func(p *sim.Proc, pe *PE) {
					sym := pe.MustMalloc(p, size)
					pe.BarrierAll(p)
					if pe.ID() == 0 {
						src := bytes.Clone(want)
						pe.PutBytes(p, 1, sym, src)
						for i := range src {
							src[i] = ^src[i]
						}
					}
					pe.BarrierAll(p)
					if pe.ID() == 1 {
						got := make([]byte, size)
						pe.LocalRead(p, sym, got)
						if i := firstDiff(got, want); i >= 0 {
							t.Errorf("byte %d of the put reads %#x, want %#x: the handler read its payload after the ACK",
								i, got[i], want[i])
						}
					}
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// firstDiff returns the first index at which a and b differ, or -1.
func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

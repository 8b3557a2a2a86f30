package core

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"repro/internal/driver"
	"repro/internal/fabric"
	"repro/internal/mem"
	"repro/internal/sim"
)

// TestMain fails the package if any test's traffic wrote into the shared
// zero source: a pool that took it back hands it out as a staging
// buffer, and the next heap read writes through it — which corrupts
// whichever later test reads zeros, not the one at fault.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 && !mem.ZeroSourceIntact() {
		fmt.Fprintln(os.Stderr, "internal/core: the shared zero source was written during the tests")
		code = 1
	}
	os.Exit(code)
}

// zeroCases is every fabric backend, each at a size with a relay hop
// where it has one, in both data-movement modes.
func zeroCases() []struct {
	fabricCase
	mode driver.Mode
} {
	var out []struct {
		fabricCase
		mode driver.Mode
	}
	for _, fc := range []fabricCase{
		{fabric.KindNTBRing, 3}, {fabric.KindNTBPair, 2}, {fabric.KindPCIeSwitch, 3}, {fabric.KindCXL, 3},
	} {
		for _, mode := range []driver.Mode{driver.ModeDMA, driver.ModeCPU} {
			out = append(out, struct {
				fabricCase
				mode driver.Mode
			}{fc, mode})
		}
	}
	return out
}

// TestZeroSourceGetThenDataGetOnEveryFabric drives a get of a range
// nobody wrote — the reply travels as the zero source — and then a get
// of real data through the same link, whose staging buffer comes from
// the pool the zero reply passed through. The second get must return
// its bytes and the zero source must still read as zeros: a pool that
// took the zero source back would stage the data get in it. Along the
// way, zero payloads must materialise neither heap pages nor windows.
func TestZeroSourceGetThenDataGetOnEveryFabric(t *testing.T) {
	for _, zc := range zeroCases() {
		t.Run(fmt.Sprintf("%s/%s", zc.name(), zc.mode), func(t *testing.T) {
			w := newFabricWorld(zc.kind, zc.n, Options{Mode: zc.mode})
			defer w.Cluster.Sim.Shutdown()
			size := 3*w.Cluster.Par.GetChunk + 100 // several chunks, a ragged tail
			data := bytes.Repeat([]byte{0x3C, 0xC3, 0x5A}, size/3+1)[:size]
			owner := zc.n - 1 // the farthest PE: two hops on the ring
			err := w.Run(func(p *sim.Proc, pe *PE) {
				sym := pe.MustMalloc(p, size)
				pe.BarrierAll(p)
				if pe.ID() == 0 {
					got := bytes.Repeat([]byte{0xFF}, size)
					pe.GetBytes(p, owner, sym, got)
					if !bytes.Equal(got, make([]byte, size)) {
						t.Error("get of a never-written range returned non-zero bytes")
					}
					pe.PutBytes(p, owner, sym, make([]byte, size)) // a zero put: scanned, sent as the zero source
				}
				pe.BarrierAll(p)
				if pe.ID() == owner {
					if rp := pe.HeapStats().ResidentPages; rp != 0 {
						t.Errorf("zero traffic materialised %d heap page(s) at the owner", rp)
					}
					if wb := w.Cluster.WindowResident(); wb != 0 {
						t.Errorf("zero traffic materialised %d window byte(s)", wb)
					}
					pe.LocalWrite(p, sym, data)
				}
				pe.BarrierAll(p)
				if pe.ID() == 0 {
					got := make([]byte, size)
					pe.GetBytes(p, owner, sym, got)
					if !bytes.Equal(got, data) {
						t.Error("data get after a zero get returned the wrong bytes")
					}
					// Zeros over data must land as zeros, not be skipped.
					pe.PutBytes(p, owner, sym+8, mem.Zeros(size-16))
				}
				pe.BarrierAll(p)
				if pe.ID() == owner {
					got := make([]byte, size)
					pe.LocalRead(p, sym, got)
					want := append(append(append([]byte(nil), data[:8]...), make([]byte, size-16)...), data[size-8:]...)
					if !bytes.Equal(got, want) {
						t.Error("a zero put over data left stale bytes")
					}
				}
				pe.BarrierAll(p)
			})
			if err != nil {
				t.Fatal(err)
			}
			if !mem.ZeroSourceIntact() {
				t.Fatal("the shared zero source was written")
			}
		})
	}
}

// TestZeroBroadcastRootStagesNothing: a linear broadcast of a range the
// root never wrote sends the zero source, so no PE's heap takes storage;
// of a written range, every PE receives the bytes.
func TestZeroBroadcastRootStagesNothing(t *testing.T) {
	w := newWorld(4, Options{})
	const size = 100_000
	data := bytes.Repeat([]byte{7, 1}, size/2)
	err := w.Run(func(p *sim.Proc, pe *PE) {
		sym := pe.MustMalloc(p, size)
		pe.BroadcastBytes(p, 0, sym, size)
		if rp := pe.HeapStats().ResidentPages; rp != 0 {
			t.Errorf("pe %d: zero broadcast materialised %d heap page(s)", pe.ID(), rp)
		}
		if pe.ID() == 0 {
			pe.LocalWrite(p, sym, data)
		}
		pe.BroadcastBytes(p, 0, sym, size)
		got := make([]byte, size)
		pe.LocalRead(p, sym, got)
		if !bytes.Equal(got, data) {
			t.Errorf("pe %d: broadcast data differs", pe.ID())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

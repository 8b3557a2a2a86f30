package ntb_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/fabric"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/ntb"
	"repro/internal/sim"
)

// TestClassicWindowsHoldNothing: under the paper's stop-and-wait
// protocol every chunk is lent to the peer's window and reclaimed after
// its ACK, so however much traffic a world carries — random payloads,
// puts and gets to every PE, relayed where the fabric relays — no window
// needs memory behind it. A fabric-built port's windows have no
// translation, so a landing that copied would panic and fail the run.
func TestClassicWindowsHoldNothing(t *testing.T) {
	for _, fc := range []struct {
		kind fabric.Kind
		n    int
	}{{fabric.KindNTBRing, 4}, {fabric.KindNTBPair, 2}, {fabric.KindPCIeSwitch, 3}} {
		for _, mode := range []driver.Mode{driver.ModeDMA, driver.ModeCPU} {
			t.Run(fmt.Sprintf("%s/%s", fc.kind, mode), func(t *testing.T) {
				c, err := fabric.New(fabric.Config{Sim: sim.New(), Par: model.Default(), Hosts: fc.n, Kind: fc.kind})
				if err != nil {
					t.Fatal(err)
				}
				w := core.NewWorld(c, core.Options{Mode: mode})
				size := c.Par.PutChunk + c.Par.GetChunk + 123 // several chunks each way, ragged tails
				err = w.Run(func(p *sim.Proc, pe *core.PE) {
					// Every PE owns one slot per source in a symmetric array
					// and fills its slot at every other PE with its own
					// random bytes; then every PE reads back every slot.
					sym := pe.MustMalloc(p, fc.n*size)
					mine := make([]byte, size)
					rand.New(rand.NewSource(int64(pe.ID()))).Read(mine)
					pe.BarrierAll(p)
					for dst := range fc.n {
						if dst != pe.ID() {
							pe.PutBytes(p, dst, sym+core.SymAddr(pe.ID()*size), mine)
						}
					}
					pe.BarrierAll(p)
					got := make([]byte, size)
					for owner := range fc.n {
						for src := range fc.n {
							if owner == pe.ID() || src == owner {
								continue
							}
							want := make([]byte, size)
							rand.New(rand.NewSource(int64(src))).Read(want)
							pe.GetBytes(p, owner, sym+core.SymAddr(src*size), got)
							if !bytes.Equal(got, want) {
								t.Errorf("pe %d: pe %d's copy of pe %d's slot differs", pe.ID(), owner, src)
							}
						}
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				if r := c.Resident(); r.WindowBytes != 0 {
					t.Errorf("the windows translate onto %d bytes of storage", r.WindowBytes)
				}
			})
		}
	}
}

// TestCopyLandingWithoutTranslationPanics: a fabric-built port's windows
// translate onto nothing until a receiver registers memory, so a copy
// landing in one is a protocol bug. By programmed I/O it panics in the
// sender's process and by DMA in the engine's, either way before any
// storage is borrowed; a zero landing is free.
func TestCopyLandingWithoutTranslationPanics(t *testing.T) {
	for _, mode := range []driver.Mode{driver.ModeCPU, driver.ModeDMA} {
		t.Run(mode.String(), func(t *testing.T) {
			c, err := fabric.New(fabric.Config{Sim: sim.New(), Par: model.Default(), Hosts: 2, Kind: fabric.KindNTBPair})
			if err != nil {
				t.Fatal(err)
			}
			defer c.ShutdownSim()
			a := c.Hosts[0].Right
			send := func(data []byte) error {
				c.Sim.Go("send", func(p *sim.Proc) {
					if mode == driver.ModeDMA {
						a.DMA().SubmitWait(p, ntb.Desc{Region: ntb.RegionData, Off: 64, Src: data, Bytes: len(data)})
					} else {
						a.CPUWrite(p, ntb.RegionData, 64, data)
					}
				})
				return c.RunSim()
			}
			mem.DrainLender()
			if err := send(mem.Zeros(4096)); err != nil {
				t.Fatalf("a zero landing failed: %v", err)
			}
			err = send([]byte{1, 2, 3})
			if err == nil || !strings.Contains(err.Error(), "no translation") {
				t.Fatalf("a copy landing without a translation ran: %v", err)
			}
			if mem.LenderHeld() != 0 || c.Resident() != (fabric.Residency{}) {
				t.Fatal("a refused landing touched storage")
			}
		})
	}
}

// TestTransferCrossingPartPanics: a pipelined receiver's slot ring is
// the data window's translation, and every transfer lies inside one
// slot. One that crosses a slot boundary, or lies in the remainder past
// the last slot, panics before it stores a byte — by PIO in the
// sender's process, by DMA in the engine's — and so does a read.
func TestTransferCrossingPartPanics(t *testing.T) {
	for name, op := range map[string]func(p *sim.Proc, a, b *ntb.Port, slot int){
		"PIO": func(p *sim.Proc, a, _ *ntb.Port, slot int) { a.CPUWrite(p, ntb.RegionData, slot-10, make([]byte, 20)) },
		"header": func(p *sim.Proc, a, _ *ntb.Port, slot int) {
			a.CPUWriteHdr(p, ntb.RegionData, slot-32, make([]byte, 64), nil)
		},
		"DMA": func(p *sim.Proc, a, _ *ntb.Port, slot int) {
			a.DMA().SubmitWait(p, ntb.Desc{Region: ntb.RegionData, Off: 2*slot - 64, Hdr: make([]byte, 64), Src: []byte{1}, Bytes: 1})
		},
		"remainder":   func(p *sim.Proc, a, _ *ntb.Port, slot int) { a.CPUWrite(p, ntb.RegionData, 3*slot, []byte{1}) },
		"CPURead":     func(p *sim.Proc, a, _ *ntb.Port, slot int) { a.CPURead(p, ntb.RegionData, slot-1, make([]byte, 2)) },
		"ranged read": func(_ *sim.Proc, _, b *ntb.Port, slot int) { b.InboundRange(ntb.RegionData, 2*slot-1, 2) },
	} {
		t.Run(name, func(t *testing.T) {
			c, err := fabric.New(fabric.Config{Sim: sim.New(), Par: model.Default(), Hosts: 2, Kind: fabric.KindNTBPair})
			if err != nil {
				t.Fatal(err)
			}
			defer c.ShutdownSim()
			a, b := c.Hosts[0].Right, c.Hosts[1].Left
			rx := driver.NewPipeRx(b, c.Par, 3) // 349 525-byte slots and a 1-byte remainder
			slot := c.Par.WindowSize / 3
			c.Sim.Go("op", func(p *sim.Proc) { op(p, a, b, slot) })
			if err := c.RunSim(); err == nil || !strings.Contains(err.Error(), "crosses") {
				t.Fatalf("%s across a slot boundary ran: %v", name, err)
			}
			if n := rx.Resident(); n != 0 {
				t.Fatalf("a refused transfer materialised %d bytes", n)
			}
		})
	}
}

// TestPartitionedWindowMaterialisesOnlyLandedParts: a data window
// translated onto a pipelined receiver's eight-slot ring reads every
// idle slot's header as the zero source and holds nothing; after
// transfers into slots 0 and 5 exactly those two slots hold storage,
// each demand-sized to its transfer, although slots 1 to 4 lie between
// them.
func TestPartitionedWindowMaterialisesOnlyLandedParts(t *testing.T) {
	mem.DrainLender()
	c, err := fabric.New(fabric.Config{Sim: sim.New(), Par: model.Default(), Hosts: 2, Kind: fabric.KindNTBPair})
	if err != nil {
		t.Fatal(err)
	}
	defer c.ShutdownSim()
	a, b := c.Hosts[0].Right, c.Hosts[1].Left
	rx := driver.NewPipeRx(b, c.Par, 8)
	slot := c.Par.WindowSize / 8
	for i := 0; i < 8; i++ {
		if h := b.InboundRange(ntb.RegionData, i*slot, driver.SlotHeaderBytes); !mem.IsZeroSource(h) {
			t.Fatalf("slot %d's header on an idle ring is not the zero source", i)
		}
	}
	if n := rx.Resident(); n != 0 {
		t.Fatalf("polling an idle ring materialised %d bytes", n)
	}

	hdr0, data0 := bytes.Repeat([]byte{1}, 64), bytes.Repeat([]byte{2}, 1000)
	hdr5, data5 := bytes.Repeat([]byte{3}, 64), bytes.Repeat([]byte{4}, 10000)
	c.Sim.Go("sender", func(p *sim.Proc) {
		a.CPUWriteHdr(p, ntb.RegionData, 0, hdr0, data0)
		a.DMA().SubmitWait(p, ntb.Desc{Region: ntb.RegionData, Off: 5 * slot, Hdr: hdr5, Src: data5, Bytes: len(data5)})
	})
	if err := c.RunSim(); err != nil {
		t.Fatal(err)
	}
	if got, want := rx.Resident(), 4096+1<<14; got != want {
		t.Fatalf("%d window bytes materialised, want %d (a 4 KiB and a 16 KiB slot block)", got, want)
	}
	for i := 0; i < 8; i++ {
		idle := mem.IsZeroSource(b.InboundRange(ntb.RegionData, i*slot, driver.SlotHeaderBytes))
		if idle != (i != 0 && i != 5) {
			t.Fatalf("slot %d reads as idle: %v", i, idle)
		}
	}
	if !bytes.Equal(b.InboundRange(ntb.RegionData, 0, 64+1000), append(hdr0, data0...)) ||
		!bytes.Equal(b.InboundRange(ntb.RegionData, 5*slot, 64+10000), append(hdr5, data5...)) {
		t.Fatal("a slot's bytes did not land")
	}
	rx.ReturnStorage()
	if rx.Resident() != 0 || !mem.LenderClean() {
		t.Fatal("the slot ring did not give its storage back cleared")
	}
}

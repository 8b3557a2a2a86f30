package ntb_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/fabric"
	"repro/internal/model"
	"repro/internal/ntb"
	"repro/internal/sim"
)

// TestClassicWindowsHoldNothing: under the paper's stop-and-wait
// protocol every chunk is lent to the peer's window and reclaimed after
// its ACK, so however much traffic a world carries — random payloads,
// puts and gets to every PE, relayed where the fabric relays — no window
// ends up holding storage or a dirty byte. A landing that copied would
// leave both.
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
				for _, h := range c.Hosts {
					for port := range h.Ports() {
						for _, r := range []ntb.Region{ntb.RegionData, ntb.RegionBypass} {
							lo, hi := ntb.DirtyExtent(port, r)
							if n := port.WindowResident(r); n != 0 || lo != hi {
								t.Errorf("%s's %v window holds %d bytes, dirty [%d,%d)", port.Name(), r, n, lo, hi)
							}
						}
					}
				}
			})
		}
	}
}

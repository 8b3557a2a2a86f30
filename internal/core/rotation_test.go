package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/driver"
	"repro/internal/fabric"
	"repro/internal/model"
	"repro/internal/sim"
)

// TestRotationPreservesOps is a metamorphic relation on the paper's
// testbed of three identical hosts in a ring: relabelling the hosts by a
// rotation must not change what an operation does. Each point — put or
// get, DMA or memcpy, one or two hops, 1 KiB to 512 KiB — is issued from
// PE 0, 1 and 2 in turn, on a world whose ChipsetSpread is rotated along
// with the source, so that the source's outgoing link always runs at the
// rate PE 0's does unrotated. Every rotation must take the same virtual
// time to the nanosecond and land the same bytes.
//
// A rotation also changes the order in which hosts, processes and
// events are created, and with it the sequence numbers that break ties
// between events at the same instant; a latency that moved would be a
// tie-order dependence. Barrier times are not compared: the ring
// barrier has a root, host 0, which starts both token rounds, so for
// most points the barrier that follows reads 1 093.8 µs at PE 0 and
// 727.2 µs at PEs 1 and 2. A relation over barriers has to rotate the
// root too, or compare PEs in the same role.
func TestRotationPreservesOps(t *testing.T) {
	const n = 3
	for _, mode := range []driver.Mode{driver.ModeDMA, driver.ModeCPU} {
		for _, get := range []bool{false, true} {
			for _, hops := range []int{1, 2} {
				for _, size := range []int{1 << 10, 64 << 10, 512 << 10} {
					op := map[bool]string{false: "put", true: "get"}[get]
					t.Run(fmt.Sprintf("%v/%s/%dhop/%dKiB", mode, op, hops, size>>10), func(t *testing.T) {
						var first sim.Duration
						for src := 0; src < n; src++ {
							lat, landed := rotatedOp(t, mode, get, src, (src+hops)%n, size)
							if !bytes.Equal(landed, rotationPattern(size)) {
								t.Errorf("from PE %d: the %s landed different bytes", src, op)
							}
							if src == 0 {
								first = lat
							} else if lat != first {
								t.Errorf("from PE %d: %v, from PE 0: %v", src, lat, first)
							}
						}
					})
				}
			}
		}
	}
}

// rotatedOp runs one put (or get) of size bytes from PE src to PE dst on
// a 3-host ring whose ChipsetSpread is rotated by src, and returns the
// operation's virtual latency at src and the bytes it landed: the
// destination's heap after a put, the source's buffer after a get.
func rotatedOp(t *testing.T, mode driver.Mode, get bool, src, dst, size int) (sim.Duration, []byte) {
	t.Helper()
	par := model.Default()
	spread := par.ChipsetSpread
	par.ChipsetSpread = make([]float64, len(spread))
	for i, f := range spread {
		par.ChipsetSpread[(i+src)%len(spread)] = f
	}
	c, err := fabric.NewRing(sim.New(), par, 3)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(c, Options{Mode: mode})
	var lat sim.Duration
	landed := make([]byte, size)
	err = w.Run(func(p *sim.Proc, pe *PE) {
		sym := pe.MustMalloc(p, size)
		if get && pe.ID() == dst {
			pe.LocalWrite(p, sym, rotationPattern(size))
		}
		pe.BarrierAll(p)
		if pe.ID() == src {
			start := p.Now()
			if get {
				pe.GetBytes(p, dst, sym, landed)
			} else {
				pe.PutBytes(p, dst, sym, rotationPattern(size))
			}
			lat = p.Now().Sub(start)
		}
		pe.BarrierAll(p)
		if !get && pe.ID() == dst {
			pe.LocalRead(p, sym, landed)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return lat, landed
}

// rotationPattern is the payload every rotation moves: no zero byte, so
// no chunk of it travels as the zero source.
func rotationPattern(size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(i%253 + 1)
	}
	return b
}

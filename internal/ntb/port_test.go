package ntb

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/pcie"
	"repro/internal/sim"
)

// pair builds two connected ports on separate hosts. It empties the mem
// lender first, so each block a default target materialises is the step
// its own writes reached, not a larger block an earlier test gave back.
func pair(t testing.TB) (*sim.Simulator, *Port, *Port, *model.Params) {
	t.Helper()
	mem.DrainLender()
	par := model.Default()
	s := sim.New()
	net := pcie.NewNetwork(s)
	rcA := pcie.NewServer("rcA", par.RootComplexBW)
	rcB := pcie.NewServer("rcB", par.RootComplexBW)
	a := NewPort("A", s, net, par, rcA)
	b := NewPort("B", s, net, par, rcB)
	Connect(a, b)
	return s, a, b, par
}

func TestConnectWiring(t *testing.T) {
	_, a, b, _ := pair(t)
	if a.Peer() != b || b.Peer() != a {
		t.Fatal("peers not wired")
	}
	if !a.Connected() || !b.Connected() {
		t.Fatal("Connected() false after Connect")
	}
}

func TestConnectTwicePanics(t *testing.T) {
	s := sim.New()
	par := model.Default()
	net := pcie.NewNetwork(s)
	rc := pcie.NewServer("rc", par.RootComplexBW)
	a := NewPort("a", s, net, par, rc)
	b := NewPort("b", s, net, par, rc)
	c := NewPort("c", s, net, par, rc)
	Connect(a, b)
	defer func() {
		if recover() == nil {
			t.Fatal("double connect did not panic")
		}
	}()
	Connect(a, c)
}

func TestSpadPeerVisibility(t *testing.T) {
	s, a, b, par := pair(t)
	s.Go("writer", func(p *sim.Proc) {
		a.PeerSpadWrite(p, 3, 0xDEADBEEF)
		if got := b.SpadRead(p, 3); got != 0xDEADBEEF {
			t.Errorf("peer spad = %#x", got)
		}
		// Reading it back across the link costs a round trip.
		before := p.Now()
		if got := a.PeerSpadRead(p, 3); got != 0xDEADBEEF {
			t.Errorf("peer spad readback = %#x", got)
		}
		if p.Now().Sub(before) < par.MMIORead {
			t.Error("peer read did not pay the round-trip cost")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDoorbellInterruptDelivery(t *testing.T) {
	s, a, b, par := pair(t)
	var fired []uint16
	var firedAt sim.Time
	b.SetISR(func(bits uint16) {
		fired = append(fired, bits)
		firedAt = s.Now()
	})
	s.Go("ringer", func(p *sim.Proc) {
		a.PeerDBSet(p, 0b0100)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0] != 0b0100 {
		t.Fatalf("ISR fired = %v, want [4]", fired)
	}
	want := sim.Time(0).Add(par.MMIOWrite + par.InterruptLatency)
	if firedAt != want {
		t.Fatalf("ISR at %v, want %v", firedAt, want)
	}
}

func TestDoorbellLatchesAndClears(t *testing.T) {
	s, a, b, _ := pair(t)
	s.Go("t", func(p *sim.Proc) {
		a.PeerDBSet(p, 0b0011)
		p.Sleep(sim.Microseconds(10))
		if got := b.DBRead(p); got != 0b0011 {
			t.Errorf("db = %#b, want 0b11", got)
		}
		b.DBClear(p, 0b0001)
		if got := b.DBRead(p); got != 0b0010 {
			t.Errorf("db after clear = %#b, want 0b10", got)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDoorbellMasking(t *testing.T) {
	s, a, b, _ := pair(t)
	var fired []uint16
	b.SetISR(func(bits uint16) { fired = append(fired, bits) })
	s.Go("t", func(p *sim.Proc) {
		b.DBSetMask(p, 0b0001)
		a.PeerDBSet(p, 0b0001) // masked: latches, no ISR
		p.Sleep(sim.Microseconds(10))
		if len(fired) != 0 {
			t.Errorf("masked doorbell fired ISR: %v", fired)
		}
		if got := b.DBRead(p); got != 0b0001 {
			t.Errorf("masked bit did not latch: %#b", got)
		}
		// Unmasking a latched pending bit fires immediately.
		b.DBClearMask(p, 0b0001)
		if len(fired) != 1 || fired[0] != 0b0001 {
			t.Errorf("pending bit on unmask: fired=%v", fired)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCPUWriteLandsInPeerWindow(t *testing.T) {
	s, a, b, _ := pair(t)
	payload := []byte("through the looking glass")
	s.Go("w", func(p *sim.Proc) {
		a.CPUWrite(p, RegionData, 100, payload)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := b.InboundRange(RegionData, 100, len(payload)); !bytes.Equal(got, payload) {
		t.Fatalf("window contents = %q", got)
	}
}

func TestCPUReadPullsFromPeerWindow(t *testing.T) {
	s, a, b, par := pair(t)
	b.land(RegionBypass, 8, nil, []byte("hidden"))
	var elapsed sim.Duration
	s.Go("r", func(p *sim.Proc) {
		buf := make([]byte, 6)
		start := p.Now()
		a.CPURead(p, RegionBypass, 8, buf)
		elapsed = p.Now().Sub(start)
		if string(buf) != "hidden" {
			t.Errorf("read %q", buf)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Uncached reads are far slower than writes for the same size.
	s2, a2, _, _ := pair(t)
	var writeElapsed sim.Duration
	s2.Go("w", func(p *sim.Proc) {
		start := p.Now()
		a2.CPUWrite(p, RegionBypass, 8, make([]byte, 6))
		writeElapsed = p.Now().Sub(start)
	})
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}
	_ = par
	if elapsed <= writeElapsed {
		t.Fatalf("read (%v) should be slower than write (%v)", elapsed, writeElapsed)
	}
}

func TestDMATransferMovesDataAndCosts(t *testing.T) {
	s, a, b, par := pair(t)
	const n = 256 << 10
	src := make([]byte, n)
	rand.New(rand.NewSource(1)).Read(src)
	var elapsed sim.Duration
	s.Go("dma", func(p *sim.Proc) {
		start := p.Now()
		done := a.DMA().Submit(p, Desc{Region: RegionData, Off: 0, Src: src, Bytes: n})
		done.Wait(p)
		elapsed = p.Now().Sub(start)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.InboundRange(RegionData, 0, n), src) {
		t.Fatal("DMA data mismatch")
	}
	// Expected: setup + n/engineBW (engine is the bottleneck).
	want := par.DMASetup + sim.BytesAt(n, par.DMAEngineBW)
	tol := sim.Microseconds(3)
	if d := elapsed - want; d > tol || d < -tol {
		t.Fatalf("DMA 256KiB took %v, want ~%v", elapsed, want)
	}
}

func TestDMADescriptorsProcessInOrder(t *testing.T) {
	s, a, b, _ := pair(t)
	var order []byte
	s.Go("dma", func(p *sim.Proc) {
		var last Ticket
		for i := byte(0); i < 5; i++ {
			src := []byte{i}
			last = a.DMA().Submit(p, Desc{Region: RegionData, Off: 0, Src: src, Bytes: 1})
			// Capture window value at each completion via a watcher.
			done := last
			i := i
			s.Go("watch", func(wp *sim.Proc) {
				done.Wait(wp)
				order = append(order, b.InboundRange(RegionData, 0, 1)[0], i)
			})
		}
		last.Wait(p)
		if a.DMA().Pending() != 0 {
			t.Errorf("pending = %d after final completion", a.DMA().Pending())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i := byte(0); i < 5; i++ {
		if order[2*i] != i || order[2*i+1] != i {
			t.Fatalf("completion order wrong: %v", order)
		}
	}
}

func TestEngineBuiltOnFirstUse(t *testing.T) {
	// A port carries no DMA engine until its first DMA call; one that
	// never runs one still snapshots and restores as idle, and a built
	// engine is the same engine on every later call.
	s, a, b, _ := pair(t)
	if a.dma != nil || b.dma != nil {
		t.Fatal("a fresh port holds a DMA engine")
	}
	s.Go("pio", func(p *sim.Proc) { a.CPUWrite(p, RegionData, 0, []byte{1, 2, 3}) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	b.Restore(a.Snapshot())
	a.Restore(nil)
	if a.dma != nil || b.dma != nil {
		t.Fatal("programmed I/O, a snapshot or a restore built a DMA engine")
	}
	if e := a.DMA(); e == nil || a.DMA() != e || a.dma != e {
		t.Fatal("DMA does not build one engine and keep it")
	}
}

func TestSubmitAllocatesNothing(t *testing.T) {
	// Submit takes its job record from the engine's pool and the engine
	// recycles it as the descriptor lands; the ticket it returns is a
	// value. Once the pool is warm a burst of Submit-then-Wait, and one
	// of Submits waited on only at the last, allocates nothing.
	s, a, b, _ := pair(t)
	src := bytes.Repeat([]byte{7}, 4096)
	start := sim.NewQueue[int]("start")
	s.GoDaemon("submitter", func(p *sim.Proc) {
		for {
			waitEach := start.Pop(p) == 0
			var last Ticket
			for i := 0; i < 8; i++ {
				last = a.DMA().Submit(p, Desc{Region: RegionData, Off: i * 4096, Src: src, Bytes: len(src)})
				if waitEach {
					last.Wait(p)
				}
			}
			last.Wait(p)
			if !last.Done() || a.DMA().Pending() != 0 {
				t.Errorf("a waited-on ticket reads done=%v with %d descriptor(s) pending", last.Done(), a.DMA().Pending())
			}
		}
	})
	for _, waitEach := range []int{0, 1} {
		burst := func() {
			start.Push(waitEach)
			if err := s.RunUntil(s.Now().Add(10 * sim.Millisecond)); err != nil {
				t.Fatal(err)
			}
		}
		burst() // warm the job pool, the queues and the flow network
		if allocs := testing.AllocsPerRun(10, burst); allocs != 0 {
			t.Fatalf("%.1f allocations per burst of 8 Submits (wait each: %v), want 0", allocs, waitEach == 0)
		}
	}
	if !bytes.Equal(b.InboundRange(RegionData, 7*4096, 4096), src) {
		t.Fatal("the last descriptor's bytes are not in the peer window")
	}
}

func TestDMAIsFasterThanCPUWriteForBulk(t *testing.T) {
	// The Fig 9 premise: for large transfers DMA beats programmed I/O.
	const n = 512 << 10
	src := make([]byte, n)

	time1 := func(f func(p *sim.Proc, a *Port)) sim.Duration {
		s, a, _, _ := pair(t)
		var d sim.Duration
		s.Go("x", func(p *sim.Proc) {
			start := p.Now()
			f(p, a)
			d = p.Now().Sub(start)
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return d
	}
	dma := time1(func(p *sim.Proc, a *Port) {
		a.DMA().Submit(p, Desc{Region: RegionData, Src: src, Bytes: n}).Wait(p)
	})
	cpu := time1(func(p *sim.Proc, a *Port) {
		a.CPUWrite(p, RegionData, 0, src)
	})
	if dma >= cpu {
		t.Fatalf("DMA (%v) not faster than CPU write (%v) at 512KiB", dma, cpu)
	}
}

func TestWindowBoundsChecked(t *testing.T) {
	s, a, _, par := pair(t)
	s.Go("x", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("oversized window write did not panic")
			}
		}()
		a.CPUWrite(p, RegionData, par.WindowSize-10, make([]byte, 20))
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySpadRoundTrip(t *testing.T) {
	// Property: any value written to any valid peer spad reads back
	// identically from both sides.
	f := func(vals []uint32) bool {
		s, a, b, par := pair(t)
		ok := true
		s.Go("w", func(p *sim.Proc) {
			for i, v := range vals {
				idx := i % par.SpadCount
				a.PeerSpadWrite(p, idx, v)
				if b.SpadRead(p, idx) != v || a.PeerSpadRead(p, idx) != v {
					ok = false
				}
			}
		})
		if err := s.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDoorbellSetClearAlgebra(t *testing.T) {
	// Property: after an arbitrary sequence of peer sets and local
	// clears, the status register equals the fold of the same ops on a
	// plain uint16.
	f := func(ops []uint16) bool {
		s, a, b, _ := pair(t)
		var shadow uint16
		match := true
		s.Go("t", func(p *sim.Proc) {
			for i, op := range ops {
				bits := op & 0xFFFF
				if i%2 == 0 {
					a.PeerDBSet(p, bits)
					shadow |= bits
					p.Sleep(sim.Microseconds(5)) // let the interrupt land
				} else {
					b.DBClear(p, bits)
					shadow &^= bits
				}
			}
			if b.DBRead(p) != shadow {
				match = false
			}
		})
		if err := s.Run(); err != nil {
			return false
		}
		return match
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

package ntb

import (
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/pcie"
	"repro/internal/sim"
)

func TestUnplugDropsPostedWrites(t *testing.T) {
	s, a, b, _ := pair(t)
	s.Go("t", func(p *sim.Proc) {
		a.PeerSpadWrite(p, 2, 0x1234)
		a.Unplug()
		a.PeerSpadWrite(p, 2, 0x9999) // dropped
		if got := b.SpadRead(p, 2); got != 0x1234 {
			t.Errorf("spad = %#x after dead-link write", got)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestUnplugReadsReturnMasterAbort(t *testing.T) {
	s, a, b, par := pair(t)
	_ = b
	s.Go("t", func(p *sim.Proc) {
		a.Unplug()
		start := p.Now()
		if got := a.PeerSpadRead(p, 0); got != ^uint32(0) {
			t.Errorf("dead-link read = %#x, want all ones", got)
		}
		if p.Now().Sub(start) < par.MMIORead {
			t.Error("dead-link read returned implausibly fast")
		}
		buf := make([]byte, 4)
		a.CPURead(p, RegionData, 0, buf)
		for _, by := range buf {
			if by != 0xFF {
				t.Errorf("dead-link window read = %v", buf)
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestUnplugDropsDoorbells(t *testing.T) {
	s, a, b, _ := pair(t)
	fired := 0
	b.SetISR(func(bits uint16) { fired++ })
	s.Go("t", func(p *sim.Proc) {
		a.PeerDBSet(p, 1)
		p.Sleep(10 * sim.Microsecond)
		a.Unplug()
		a.PeerDBSet(p, 1)
		p.Sleep(10 * sim.Microsecond)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("ISR fired %d times; the post-unplug ring should vanish", fired)
	}
}

func TestUnplugWedgesDMA(t *testing.T) {
	s, a, _, _ := pair(t)
	s.Go("t", func(p *sim.Proc) {
		a.Unplug()
		done := a.DMA().Submit(p, Desc{Region: RegionData, Src: make([]byte, 64), Bytes: 64})
		done.Wait(p) // never completes
		t.Error("DMA on a dead link completed")
	})
	err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("expected a deadlock report for the wedged waiter, got %v", err)
	}
}

func TestUnplugDropsWholeFrame(t *testing.T) {
	// A framed transfer to a dead link lands neither its header nor its
	// payload: PIO stores vanish, and a DMA descriptor wedges the engine
	// before any byte moves.
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			s, a, b, _ := pair(t)
			a.Unplug()
			s.Go("send", func(p *sim.Proc) { m.send(p, a, RegionData, 0, pattern(64, 1), pattern(4000, 2)) })
			if err := s.Run(); err != nil && !strings.Contains(err.Error(), "deadlock") {
				t.Fatal(err)
			}
			if n := target(b, RegionData).Resident(); n != 0 {
				t.Fatalf("dead link: %d window bytes materialised", n)
			}
		})
	}
}

func TestUnplugBothSidesSeeIt(t *testing.T) {
	s, a, b, _ := pair(t)
	_ = s
	if !a.LinkUp() || !b.LinkUp() {
		t.Fatal("fresh link should be up")
	}
	b.Unplug()
	if a.LinkUp() || b.LinkUp() {
		t.Fatal("unplug must be visible from both ends")
	}
}

func TestUnplugUnconnectedPanics(t *testing.T) {
	s := sim.New()
	par := model.Default()
	orphan := NewPort("orphan", s, pcie.NewNetwork(s), par, pcie.NewServer("rc", par.RootComplexBW))
	defer func() {
		if recover() == nil {
			t.Fatal("unplug of unconnected port did not panic")
		}
	}()
	orphan.Unplug()
}

func TestLUTEnforcement(t *testing.T) {
	s, a, b, _ := pair(t)
	a.SetRequesterID(0x11)
	b.SetRequesterID(0x22)
	s.Go("t", func(p *sim.Proc) {
		// Unenforced: everything flows.
		a.CPUWrite(p, RegionData, 0, []byte{1})
		// B enforces and admits only requester 0x99.
		b.LUTAdd(p, 0x99)
		if !b.LUTContains(0x99) || b.LUTContains(0x11) {
			t.Error("LUT contents wrong")
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("unregistered requester admitted (CPU write)")
				}
			}()
			a.CPUWrite(p, RegionData, 0, []byte{2})
		}()
		// Admitting A unblocks it.
		b.LUTAdd(p, a.RequesterID())
		a.CPUWrite(p, RegionData, 0, []byte{3})
		if b.InboundRange(RegionData, 0, 1)[0] != 3 {
			t.Error("admitted write did not land")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLUTHoldsEachRequesterOnce(t *testing.T) {
	// Re-boot reprograms the same entries, which must not fill the table;
	// a distinct requester past its capacity is a loud failure.
	s, _, b, _ := pair(t)
	s.Go("t", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			b.LUTAdd(p, 0x42)
		}
		for id := uint16(1); id < 8; id++ {
			b.LUTAdd(p, id)
		}
		if !b.LUTContains(0x42) || !b.LUTContains(7) {
			t.Error("LUT lost an entry")
		}
		defer func() {
			if recover() == nil {
				t.Error("a ninth requester was admitted to an eight-entry LUT")
			}
		}()
		b.LUTAdd(p, 8)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLUTGatesDMA(t *testing.T) {
	s, a, b, _ := pair(t)
	a.SetRequesterID(0x11)
	s.Go("t", func(p *sim.Proc) {
		b.LUTAdd(p, 0x77) // enforce, A not admitted
		done := a.DMA().Submit(p, Desc{Region: RegionData, Src: make([]byte, 64), Bytes: 64})
		_ = done
	})
	err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "LUT") {
		t.Fatalf("DMA from unregistered requester should fail the engine: %v", err)
	}
}

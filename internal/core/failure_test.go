package core

import (
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/model"
	"repro/internal/sim"
)

// Cluster-level failure injection: a put across a cut cable can never
// complete its stop-and-wait handshake, and the kernel's deadlock
// detector names the stuck process — the diagnosis an operator of the
// real system would assemble from hung ioctls.

func TestPutAcrossCutLinkHangsDetectably(t *testing.T) {
	s := sim.New()
	c, err := fabric.NewRing(s, model.Default(), 3)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(c, Options{})
	w.Launch(func(p *sim.Proc, pe *PE) {
		sym := pe.MustMalloc(p, 4096)
		pe.BarrierAll(p)
		if pe.ID() == 0 {
			if err := c.Unplug(0); err != nil { // sever 0 -> 1
				t.Error(err)
			}
			pe.PutBytes(p, 1, sym, make([]byte, 4096))
		}
		pe.BarrierAll(p)
	})
	err = s.Run()
	if err == nil {
		t.Fatal("put across a cut link completed")
	}
	if !strings.Contains(err.Error(), "deadlock") || !strings.Contains(err.Error(), "pe:0") {
		t.Fatalf("deadlock report should name the stuck PE: %v", err)
	}
}

func TestTrafficAvoidingCutLinkStillWorks(t *testing.T) {
	// With the 1->2 cable cut and shortest routing, PE 0's traffic to
	// PE 1 (one hop rightward) and to PE 2 (one hop leftward) never
	// touches the dead segment: puts deliver, and the round-trip gets
	// confirm it without any barrier (barrier tokens would have to
	// cross the dead cable).
	s := sim.New()
	c, err := fabric.NewRing(s, model.Default(), 3)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(c, Options{Routing: RouteShortest})
	var back1, back2 []byte
	w.Launch(func(p *sim.Proc, pe *PE) {
		sym := pe.MustMalloc(p, 8)
		pe.BarrierAll(p) // init-time traffic predates the cut
		if pe.ID() == 0 {
			if err := c.Unplug(1); err != nil { // sever 1 -> 2
				t.Error(err)
			}
			pe.PutBytes(p, 1, sym, []byte("to-host1"))
			pe.PutBytes(p, 2, sym, []byte("to-host2"))
			back1 = make([]byte, 8)
			back2 = make([]byte, 8)
			pe.GetBytes(p, 1, sym, back1)
			pe.GetBytes(p, 2, sym, back2)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if string(back1) != "to-host1" || string(back2) != "to-host2" {
		t.Fatalf("deliveries around the cut failed: %q, %q", back1, back2)
	}
}

func TestCutLinkUnderPipelinedProtocol(t *testing.T) {
	// With credits instead of ACK waits, a dead cable manifests as the
	// sender running out of credits (receiver's ACK doorbells vanish) or
	// its DMA wedging — either way the deadlock detector names it.
	s := sim.New()
	c, err := fabric.NewRing(s, model.Default(), 3)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(c, Options{Pipeline: 2})
	w.Launch(func(p *sim.Proc, pe *PE) {
		sym := pe.MustMalloc(p, 256<<10)
		pe.BarrierAll(p)
		if pe.ID() == 0 {
			if err := c.Unplug(0); err != nil {
				t.Error(err)
			}
			// More chunks than credits: must block.
			pe.PutBytes(p, 1, sym, make([]byte, 256<<10))
		}
		pe.BarrierAll(p)
	})
	err = s.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("expected detectable hang, got %v", err)
	}
}

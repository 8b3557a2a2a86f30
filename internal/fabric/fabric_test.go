package fabric

import (
	"fmt"
	"testing"

	"repro/internal/model"
	"repro/internal/sim"
)

func TestRingWiring(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			s := sim.New()
			c, err := NewRing(s, model.Default(), n)
			if err != nil {
				t.Fatal(err)
			}
			if c.N() != n {
				t.Fatalf("N = %d", c.N())
			}
			for i, h := range c.Hosts {
				if h.Left == nil || h.Right == nil {
					t.Fatalf("host %d missing adapters", i)
				}
				next := c.Hosts[(i+1)%n]
				if h.Right.Peer() != next.Left {
					t.Fatalf("host %d right not cabled to host %d left", i, next.ID)
				}
				if h.LeftEP == nil || h.RightEP == nil || h.TxLeft == nil || h.TxRight == nil {
					t.Fatalf("host %d driver objects missing", i)
				}
			}
		})
	}
}

func TestRingSizeValidation(t *testing.T) {
	for _, n := range []int{-1, 0, 1, MaxHosts + 1} {
		c, err := NewRing(sim.New(), model.Default(), n)
		if err == nil || c != nil {
			t.Fatalf("NewRing(%d) = (%v, %v), want descriptive error", n, c, err)
		}
	}
	if _, err := NewRing(sim.New(), model.Default(), 2); err != nil {
		t.Fatalf("NewRing(2): %v", err)
	}
}

func TestPairWiring(t *testing.T) {
	s := sim.New()
	c, err := NewPair(s, model.Default())
	if err != nil {
		t.Fatal(err)
	}
	a, b := c.Hosts[0], c.Hosts[1]
	if a.Right == nil || b.Left == nil {
		t.Fatal("pair link missing")
	}
	if a.Left != nil || b.Right != nil {
		t.Fatal("pair should leave outer adapters empty")
	}
	if a.Right.Peer() != b.Left {
		t.Fatal("pair not cabled")
	}
	if c.Ring() {
		t.Fatal("pair reported as ring")
	}
}

func TestNeighborsAndHops(t *testing.T) {
	s := sim.New()
	c, err := NewRing(s, model.Default(), 4)
	if err != nil {
		t.Fatal(err)
	}
	h1 := c.Hosts[1]
	if h1.RightNeighbor() != 2 || h1.LeftNeighbor() != 0 {
		t.Fatalf("neighbors of 1 = (%d, %d)", h1.LeftNeighbor(), h1.RightNeighbor())
	}
	h3 := c.Hosts[3]
	if h3.RightNeighbor() != 0 {
		t.Fatalf("ring wrap: right of 3 = %d", h3.RightNeighbor())
	}
	cases := []struct{ src, dst, hops int }{
		{0, 0, 0}, {0, 1, 1}, {0, 2, 2}, {0, 3, 3}, {3, 0, 1}, {2, 1, 3},
	}
	for _, tc := range cases {
		if got := c.Hosts[tc.src].HopsRight(tc.dst); got != tc.hops {
			t.Errorf("hops %d->%d = %d, want %d", tc.src, tc.dst, got, tc.hops)
		}
	}
}

func TestBootExchangesIDs(t *testing.T) {
	s := sim.New()
	c, err := NewRing(s, model.Default(), 3)
	if err != nil {
		t.Fatal(err)
	}
	type res struct{ left, right int }
	results := make([]res, 3)
	for _, h := range c.Hosts {
		h := h
		s.Go(fmt.Sprintf("boot%d", h.ID), func(p *sim.Proc) {
			l, r := h.Boot(p)
			results[h.ID] = res{l, r}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		wantL := (i - 1 + 3) % 3
		wantR := (i + 1) % 3
		if r.left != wantL || r.right != wantR {
			t.Errorf("host %d discovered (%d, %d), want (%d, %d)", i, r.left, r.right, wantL, wantR)
		}
	}
}

func TestBootOnPairReportsMissingSides(t *testing.T) {
	s := sim.New()
	c, err := NewPair(s, model.Default())
	if err != nil {
		t.Fatal(err)
	}
	var l0, r0, l1, r1 int
	s.Go("b0", func(p *sim.Proc) { l0, r0 = c.Hosts[0].Boot(p) })
	s.Go("b1", func(p *sim.Proc) { l1, r1 = c.Hosts[1].Boot(p) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if l0 != -1 || r0 != 1 {
		t.Errorf("host0 boot = (%d, %d), want (-1, 1)", l0, r0)
	}
	if l1 != 0 || r1 != -1 {
		t.Errorf("host1 boot = (%d, %d), want (0, -1)", l1, r1)
	}
}

func TestBadProfileRejected(t *testing.T) {
	p := model.Default()
	p.Gen = 9
	if c, err := NewRing(sim.New(), p, 3); err == nil || c != nil {
		t.Fatalf("NewRing with a Gen9 profile = (%v, %v), want an error", c, err)
	}
}

func TestBootProgramsLUTs(t *testing.T) {
	s := sim.New()
	c, err := NewRing(s, model.Default(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range c.Hosts {
		h := h
		s.Go(fmt.Sprintf("boot%d", h.ID), func(p *sim.Proc) { h.Boot(p) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, h := range c.Hosts {
		if !h.Left.LUTContains(h.Left.Peer().RequesterID()) {
			t.Errorf("host %d left LUT missing its peer", h.ID)
		}
		if !h.Right.LUTContains(h.Right.Peer().RequesterID()) {
			t.Errorf("host %d right LUT missing its peer", h.ID)
		}
	}
	// Requester IDs are unique across the fabric.
	seen := map[uint16]string{}
	for _, h := range c.Hosts {
		for _, port := range []string{"left", "right"} {
			var id uint16
			if port == "left" {
				id = h.Left.RequesterID()
			} else {
				id = h.Right.RequesterID()
			}
			if prev, dup := seen[id]; dup {
				t.Errorf("requester id %#x reused by %s and host %d %s", id, prev, h.ID, port)
			}
			seen[id] = fmt.Sprintf("host %d %s", h.ID, port)
		}
	}
}

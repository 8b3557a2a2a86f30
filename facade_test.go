package ntbshmem

// End-to-end tests of the extension surface through the public facade:
// teams, contexts, send/recv, put-with-signal, pipelining, failure
// injection and heartbeats — everything a downstream user can reach.

import (
	"bytes"
	"strings"
	"testing"
)

func TestFacadeTeams(t *testing.T) {
	sums := make([]int64, 4)
	err := Run(Config{Hosts: 4}, func(p *Proc, pe *PE) {
		val := pe.MustMalloc(p, 8)
		pe.BarrierAll(p)
		team := pe.TeamSplitStrided(p, 0, 2, 2) // PEs 0 and 2
		if team == nil {
			pe.BarrierAll(p)
			return
		}
		LocalPut(p, pe, val, []int64{int64(pe.ID() + 1)})
		TeamReduce[int64](p, team, OpSum, val, val, 1)
		var o [1]int64
		LocalGet(p, pe, val, o[:])
		sums[pe.ID()] = o[0]
		team.Destroy(p)
		pe.BarrierAll(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if sums[0] != 4 || sums[2] != 4 { // (0+1) + (2+1)
		t.Fatalf("team sums = %v", sums)
	}
}

func TestFacadeContexts(t *testing.T) {
	err := Run(Config{Hosts: 2}, func(p *Proc, pe *PE) {
		sym := pe.MustMalloc(p, 4096)
		pe.BarrierAll(p)
		if pe.ID() == 0 {
			ctx := pe.CtxCreate()
			ctx.PutBytesNBI(p, 1, sym, make([]byte, 4096))
			ctx.Quiet(p)
			ctx.Destroy(p)
		}
		pe.BarrierAll(p)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFacadeSendRecv(t *testing.T) {
	var got []byte
	err := Run(Config{Hosts: 3}, func(p *Proc, pe *PE) {
		pe.BarrierAll(p)
		switch pe.ID() {
		case 0:
			pe.Send(p, 2, 5, []byte("over the facade"))
		case 2:
			buf := make([]byte, 64)
			n := pe.Recv(p, AnySource, 5, buf)
			got = buf[:n]
		}
		pe.BarrierAll(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "over the facade" {
		t.Fatalf("recv = %q", got)
	}
}

func TestFacadePutSignal(t *testing.T) {
	const n = 20_000
	var got []byte
	err := Run(Config{Hosts: 3}, func(p *Proc, pe *PE) {
		data := pe.MustMalloc(p, n)
		sig := pe.MustMalloc(p, 8)
		pe.BarrierAll(p)
		if pe.ID() == 0 {
			pe.PutSignal(p, 2, data, bytes.Repeat([]byte{9}, n), sig, SignalSet, 1)
		}
		if pe.ID() == 2 {
			pe.WaitUntilInt64(p, sig, CmpEQ, 1)
			got = make([]byte, n)
			pe.LocalRead(p, data, got)
		}
		pe.BarrierAll(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 9 {
			t.Fatal("signalled data corrupted")
		}
	}
}

func TestFacadePipelineOption(t *testing.T) {
	lat := func(pipeline int) Duration {
		var d Duration
		err := Run(Config{Hosts: 2, Pipeline: pipeline}, func(p *Proc, pe *PE) {
			sym := pe.MustMalloc(p, 512<<10)
			pe.BarrierAll(p)
			if pe.ID() == 0 {
				start := p.Now()
				pe.PutBytes(p, 1, sym, make([]byte, 512<<10))
				d = Duration(p.Now() - start)
			}
			pe.BarrierAll(p)
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if p8, p0 := lat(8), lat(0); p8 >= p0 {
		t.Fatalf("pipelined put (%v) should beat stop-and-wait (%v)", p8, p0)
	}
}

func TestFacadeAlignedAllocAndWaitVariants(t *testing.T) {
	err := Run(Config{Hosts: 2}, func(p *Proc, pe *PE) {
		a, errA := pe.MallocAligned(p, 100, 4096)
		if errA != nil || int64(a)%4096 != 0 {
			t.Errorf("aligned alloc = %d, %v", a, errA)
		}
		flags := pe.MustMalloc(p, 3*8)
		pe.BarrierAll(p)
		if pe.ID() == 0 {
			PutScalar[int64](p, pe, 1, flags+8, 2)
		}
		if pe.ID() == 1 {
			idx := pe.WaitUntilAnyInt64(p, []SymAddr{flags, flags + 8, flags + 16}, CmpEQ, 2)
			if idx != 1 {
				t.Errorf("WaitUntilAny = %d", idx)
			}
		}
		pe.BarrierAll(p)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFacadeFloatAtomics(t *testing.T) {
	err := Run(Config{Hosts: 2}, func(p *Proc, pe *PE) {
		f := pe.MustMalloc(p, 8)
		pe.BarrierAll(p)
		if pe.ID() == 0 {
			pe.SetFloat64(p, 1, f, 6.25)
			if old := pe.SwapFloat64(p, 1, f, -1); old != 6.25 {
				t.Errorf("float swap old = %v", old)
			}
		}
		pe.BarrierAll(p)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFacadeCutLinkDeadlockDiagnosis(t *testing.T) {
	job := NewJob(Config{Hosts: 3})
	job.World.Launch(func(p *Proc, pe *PE) {
		sym := pe.MustMalloc(p, 64)
		pe.BarrierAll(p)
		if pe.ID() == 0 {
			if err := job.CutLink(0); err != nil {
				t.Error(err)
			}
			pe.PutBytes(p, 1, sym, make([]byte, 64))
		}
		pe.BarrierAll(p)
	})
	err := job.Cluster.Sim.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("cut-link run should deadlock detectably, got %v", err)
	}
}

// TestFacadeCutLink: CutLink normalises a host index the way Unplug
// does, and reports a fabric with no cable to cut as an error.
func TestFacadeCutLink(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     Config
		i       int
		wantErr string
		cut     int // host whose rightward cable must be down, when wantErr is ""
	}{
		{"ring, negative index", Config{Hosts: 3}, -1, "", 2},
		{"switch", Config{Hosts: 3, Fabric: FabricPCIeSwitch}, 0, "not supported", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			job := NewJob(tc.cfg)
			err := job.CutLink(tc.i)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("CutLink(%d) = %v, want an error containing %q", tc.i, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("CutLink(%d) = %v", tc.i, err)
			}
			if job.Cluster.Hosts[tc.cut].Right.LinkUp() {
				t.Fatalf("CutLink(%d) left host %d's rightward cable up", tc.i, tc.cut)
			}
		})
	}
}

func TestFacadeHeartbeats(t *testing.T) {
	job := NewJob(Config{Hosts: 3})
	downs := map[string]bool{}
	hbs := job.StartHeartbeats(100_000 /* 100us */, 3, func(host int, side string) {
		downs[side] = true
	})
	if len(hbs) != 6 { // 3 hosts x 2 adapters
		t.Fatalf("%d heartbeats installed", len(hbs))
	}
	job.Cluster.Sim.After(2_000_000, func() {
		if err := job.CutLink(2); err != nil {
			t.Error(err)
		}
	})
	if err := job.Cluster.Sim.RunUntil(Time(8_000_000)); err != nil {
		t.Fatal(err)
	}
	if !downs["right"] || !downs["left"] {
		t.Fatalf("both ends should report the cut: %v", downs)
	}
	alive := 0
	for _, hb := range hbs {
		if hb.Alive() {
			alive++
		}
	}
	if alive != 4 {
		t.Fatalf("%d endpoints alive, want 4 (the uncut cables)", alive)
	}
}

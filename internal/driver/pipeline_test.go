package driver

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/mem"
	"repro/internal/ntb"
	"repro/internal/sim"
)

// pipeRig extends the two-host rig with a pipelined sender A->B and a
// receiver service on B that appends everything it drains.
type pipeRig struct {
	*rig
	tx   *PipeTx
	rx   *PipeRx
	got  []Info
	data [][]byte
}

func newPipeRig(t *testing.T, slots int) *pipeRig {
	r := newRig(t)
	pr := &pipeRig{rig: r}
	pr.tx = NewPipeTx(r.epA, r.par, slots)
	pr.rx = NewPipeRx(r.b, r.par, slots)
	q := sim.NewQueue[struct{}]("pipe-svc")
	r.epB.Handle(VecPut, func() { q.Push(struct{}{}) })
	r.epB.Handle(VecGet, func() { q.Push(struct{}{}) })
	r.sim.GoDaemon("pipe-svc", func(p *sim.Proc) {
		for {
			q.Pop(p)
			p.Sleep(r.par.ServiceWake)
			for {
				info, payload, ok := pr.rx.Next(p)
				if !ok {
					break
				}
				pr.got = append(pr.got, info)
				pr.data = append(pr.data, append([]byte(nil), payload...))
				pr.rx.Release(p)
			}
		}
	})
	return pr
}

func TestPipeHeaderCodecRoundTrip(t *testing.T) {
	in := Info{
		Kind: KindGetData, Src: 3, Dst: 1, Region: ntb.RegionBypass,
		Dir: DirLeft, Size: 0xABCD, SymOff: 0x1122_3344_5566_7788,
		Tag: 42, Aux: 0x99AA_BBCC_DDEE_0FF0,
	}
	buf := make([]byte, SlotHeaderBytes)
	encodeSlotHeader(buf, 7, &in)
	seq, out, ok := decodeSlotHeader(buf)
	if !ok || seq != 7 || out != in {
		t.Fatalf("round trip: ok=%v seq=%d\n got %+v\nwant %+v", ok, seq, out, in)
	}
	buf[0] = 0 // clear valid
	if _, _, ok := decodeSlotHeader(buf); ok {
		t.Fatal("cleared slot still decodes as valid")
	}
}

func TestPipeDeliversInOrder(t *testing.T) {
	pr := newPipeRig(t, 4)
	pr.sim.Go("sender", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			payload := []byte{byte(i), byte(i * 2)}
			pr.tx.SendChunk(p, Info{Kind: KindPut, Dst: 1, Size: 2, Tag: uint32(i)},
				Payload{Buf: payload, N: 2}, ModeDMA)
		}
	})
	if err := pr.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(pr.got) != 20 {
		t.Fatalf("delivered %d messages", len(pr.got))
	}
	for i, info := range pr.got {
		if info.Tag != uint32(i) {
			t.Fatalf("order broken at %d: tag %d", i, info.Tag)
		}
		if !bytes.Equal(pr.data[i], []byte{byte(i), byte(i * 2)}) {
			t.Fatalf("payload %d corrupted", i)
		}
	}
	if pr.tx.Sends() != 20 {
		t.Fatalf("sends = %d", pr.tx.Sends())
	}
}

func TestPipeWindowHoldsOnlyTheSlotsUsed(t *testing.T) {
	// Polling an idle pipelined receiver materialises nothing; after
	// three small chunks through an eight-slot ring, exactly the three
	// slots they used hold storage, one minimal block each, not the whole
	// window, and ReturnStorage gives it all back cleared.
	pr := newPipeRig(t, 8)
	pr.sim.Go("poll", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			if _, _, ok := pr.rx.Next(p); ok {
				t.Error("an idle ring yielded a message")
			}
		}
	})
	if err := pr.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if n := pr.rx.Resident(); n != 0 {
		t.Fatalf("polling an idle receiver materialised %d window bytes", n)
	}
	pr.sim.Go("sender", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			pr.tx.SendChunk(p, Info{Kind: KindPut, Dst: 1, Size: 1000, Tag: uint32(i)},
				Payload{Buf: bytes.Repeat([]byte{byte(i + 1)}, 1000), N: 1000}, ModeDMA)
		}
	})
	if err := pr.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(pr.data) != 3 || !bytes.Equal(pr.data[2], bytes.Repeat([]byte{3}, 1000)) {
		t.Fatalf("delivered %d messages", len(pr.data))
	}
	if n := pr.rx.Resident(); n != 3*4096 {
		t.Fatalf("%d window bytes materialised by three 1000-byte chunks, want three 4 KiB slots", n)
	}
	for s := range pr.rx.slots {
		if (s < 3) != (pr.rx.slots[s].Resident() > 0) {
			t.Fatalf("slot %d holds %d bytes", s, pr.rx.slots[s].Resident())
		}
	}
	held := mem.LenderHeld()
	pr.rx.ReturnStorage()
	if pr.rx.Resident() != 0 || mem.LenderHeld() != held+3*4096 || !mem.LenderClean() {
		t.Fatal("ReturnStorage kept slot storage or gave it back dirty")
	}
}

func TestPipeSenderOverlapsWithoutAcks(t *testing.T) {
	// With 4 credits, the sender pushes 4 chunks paying only DMA time;
	// a stop-and-wait sender would pay the receiver's wake + ack per
	// chunk.
	const n = 32 << 10
	pr := newPipeRig(t, 4)
	var fourSends sim.Duration
	pr.sim.Go("sender", func(p *sim.Proc) {
		start := p.Now()
		for i := 0; i < 4; i++ {
			pr.tx.SendChunk(p, Info{Kind: KindPut, Dst: 1, Size: n},
				Payload{Buf: make([]byte, n), N: n}, ModeDMA)
		}
		fourSends = p.Now().Sub(start)
	})
	if err := pr.sim.Run(); err != nil {
		t.Fatal(err)
	}
	// 4 x (setup + ~11.3us transfer) ~= 60us; stop-and-wait would be
	// ~4 x 95us. Assert the overlap regime.
	if fourSends > sim.Microseconds(100) {
		t.Fatalf("4 credited sends took %v; pipelining is not overlapping", fourSends)
	}
}

func TestPipeBackpressureAtDepth(t *testing.T) {
	// A burst larger than the credit pool must block until the receiver
	// drains — never overwrite undrained slots.
	pr := newPipeRig(t, 2)
	const msgs = 12
	pr.sim.Go("sender", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			pr.tx.SendChunk(p, Info{Kind: KindPut, Dst: 1, Size: 4, Tag: uint32(100 + i)},
				Payload{Buf: []byte{byte(i), 0, 0, 0}, N: 4}, ModeDMA)
		}
	})
	if err := pr.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(pr.got) != msgs {
		t.Fatalf("delivered %d of %d under backpressure", len(pr.got), msgs)
	}
	for i, info := range pr.got {
		if info.Tag != uint32(100+i) {
			t.Fatalf("backpressure reordered delivery: %d at %d", info.Tag, i)
		}
	}
}

func TestPipeRejectsBadGeometry(t *testing.T) {
	r := newRig(t)
	for name, f := range map[string]func(){
		"zero slots": func() { NewPipeTx(r.epA, r.par, 0) },
		"tiny slots": func() { NewPipeTx(r.epA, r.par, 4096) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted", name)
				}
			}()
			f()
		}()
	}
}

func TestPipeOversizeChunkPanics(t *testing.T) {
	pr := newPipeRig(t, 8)
	pr.sim.Go("sender", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("oversize chunk accepted")
			}
		}()
		n := pr.tx.MaxPayload() + 1
		pr.tx.SendChunk(p, Info{Kind: KindPut, Size: uint32(n)},
			Payload{Buf: make([]byte, n), N: n}, ModeDMA)
	})
	if err := pr.sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPipeCPUMode(t *testing.T) {
	pr := newPipeRig(t, 4)
	pr.sim.Go("sender", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			payload := bytes.Repeat([]byte{byte('x' + i)}, 1000)
			pr.tx.SendChunk(p, Info{Kind: KindPut, Dst: 1, Size: 1000},
				Payload{Buf: payload, N: 1000}, ModeCPU)
		}
	})
	if err := pr.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(pr.data) != 3 {
		t.Fatalf("delivered %d", len(pr.data))
	}
	for i, d := range pr.data {
		want := bytes.Repeat([]byte{byte('x' + i)}, 1000)
		if !bytes.Equal(d, want) {
			t.Fatalf("CPU-mode payload %d corrupted", i)
		}
	}
}

func TestPipeGeometryAccessors(t *testing.T) {
	r := newRig(t)
	tx := NewPipeTx(r.epA, r.par, 8)
	want := r.par.WindowSize/8 - SlotHeaderBytes
	if tx.MaxPayload() != want {
		t.Errorf("max payload = %d, want %d", tx.MaxPayload(), want)
	}
	_ = fmt.Sprint(tx.Sends())
}

func TestPipeSendAllocatesNothing(t *testing.T) {
	// A warm pipelined sender fills its slots in place: no staging frame,
	// no per-chunk buffer, for data and zero payloads alike.
	for _, mode := range []Mode{ModeDMA, ModeCPU} {
		t.Run(mode.String(), func(t *testing.T) {
			r := newRig(t)
			defer r.sim.Shutdown()
			const slots, chunk, burst = 4, 8 << 10, 12
			tx, rx := NewPipeTx(r.epA, r.par, slots), NewPipeRx(r.b, r.par, slots)
			svc := sim.NewQueue[struct{}]("svc")
			r.epB.Handle(VecPut, func() { svc.Push(struct{}{}) })
			r.sim.GoDaemon("svc", func(p *sim.Proc) {
				for {
					svc.Pop(p)
					for {
						if _, _, ok := rx.Next(p); !ok {
							break
						}
						rx.Release(p)
					}
				}
			})
			data := bytes.Repeat([]byte{0x5A}, chunk)
			start := sim.NewQueue[struct{}]("start")
			r.sim.GoDaemon("sender", func(p *sim.Proc) {
				for {
					start.Pop(p)
					for i := 0; i < burst; i++ {
						src := data
						if i%2 == 1 {
							src = mem.Zeros(chunk)
						}
						tx.SendChunk(p, Info{Kind: KindPut, Dst: 1, Size: chunk}, Payload{Buf: src, N: chunk}, mode)
					}
				}
			})
			sends := func() {
				start.Push(struct{}{})
				if err := r.sim.RunUntil(r.sim.Now().Add(10 * sim.Millisecond)); err != nil {
					t.Fatal(err)
				}
			}
			sends() // warm the engine's job pool and the queues
			if allocs := testing.AllocsPerRun(10, sends); allocs != 0 {
				t.Fatalf("%.1f allocations per burst of %d pipelined sends, want 0", allocs, burst)
			}
			// The warm-up burst, AllocsPerRun's own warm-up, then ten runs.
			if got := tx.Sends(); got != 12*burst {
				t.Fatalf("%d chunks sent in 12 bursts, want %d", got, 12*burst)
			}
		})
	}
}

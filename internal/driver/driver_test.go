package driver

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/ntb"
	"repro/internal/pcie"
	"repro/internal/sim"
)

// rig is a two-host test rig with a driver endpoint on each side.
type rig struct {
	sim      *sim.Simulator
	par      *model.Params
	a, b     *ntb.Port
	epA, epB *Endpoint
	txAB     *TxChannel
}

func newRig(t testing.TB) *rig {
	t.Helper()
	par := model.Default()
	s := sim.New()
	net := pcie.NewNetwork(s)
	a := ntb.NewPort("A", s, net, par, pcie.NewServer("rcA", par.RootComplexBW))
	b := ntb.NewPort("B", s, net, par, pcie.NewServer("rcB", par.RootComplexBW))
	ntb.Connect(a, b)
	epA := NewEndpoint(a)
	epB := NewEndpoint(b)
	return &rig{sim: s, par: par, a: a, b: b, epA: epA, epB: epB, txAB: NewTxChannel(epA, par)}
}

// autoAck wires a minimal receiver on B: on any data vector, a service
// proc reads the info, records it, copies the payload out, and ACKs.
func (r *rig) autoAck(t *testing.T, got *[]Info, data *[][]byte) {
	q := sim.NewQueue[int]("svcB")
	r.epB.Handle(VecPut, func() { q.Push(VecPut) })
	r.epB.Handle(VecGet, func() { q.Push(VecGet) })
	r.sim.GoDaemon("svcB", func(p *sim.Proc) {
		for {
			q.Pop(p)
			p.Sleep(r.par.ServiceWake)
			info := ReadInfo(p, r.b)
			*got = append(*got, info)
			if data != nil && info.Size > 0 {
				buf := make([]byte, info.Size)
				copy(buf, r.b.InboundRange(info.Region, 0, int(info.Size)))
				*data = append(*data, buf)
			}
			Ack(p, r.b)
		}
	})
}

func TestInfoCodecRoundTrip(t *testing.T) {
	r := newRig(t)
	in := Info{
		Kind:   KindGetReq,
		Src:    2,
		Dst:    0,
		Region: ntb.RegionBypass,
		Dir:    DirLeft,
		Size:   0xDEAD,
		SymOff: 0x1234_5678_9ABC_DEF0,
		Tag:    77,
		Aux:    0xFFFF_0000_1111_2222,
	}
	var out Info
	r.sim.Go("codec", func(p *sim.Proc) {
		in.writeTo(p, r.a)
		out = ReadInfo(p, r.b)
	})
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("codec round trip:\n got %+v\nwant %+v", out, in)
	}
}

func TestKindVectors(t *testing.T) {
	if KindPut.vector() != VecPut || KindAMO.vector() != VecPut || KindAMOReply.vector() != VecPut {
		t.Error("put-family kinds must ride VecPut")
	}
	if KindGetReq.vector() != VecGet || KindGetData.vector() != VecGet {
		t.Error("get-family kinds must ride VecGet")
	}
}

func TestSendChunkDeliversAndAcks(t *testing.T) {
	r := newRig(t)
	var infos []Info
	var datas [][]byte
	r.autoAck(t, &infos, &datas)
	payload := []byte("sixteen candles!")
	r.sim.Go("send", func(p *sim.Proc) {
		r.txAB.SendChunk(p, Info{
			Kind: KindPut, Src: 0, Dst: 1, Region: ntb.RegionData,
			Size: uint32(len(payload)), SymOff: 4096,
		}, Payload{Buf: payload, N: len(payload)}, ModeDMA)
	})
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].SymOff != 4096 || infos[0].Kind != KindPut {
		t.Fatalf("receiver saw %+v", infos)
	}
	if len(datas) != 1 || !bytes.Equal(datas[0], payload) {
		t.Fatalf("payload mismatch: %q", datas)
	}
	if r.txAB.Sends() != 1 {
		t.Fatalf("sends = %d", r.txAB.Sends())
	}
}

func TestSendChunkCPUMode(t *testing.T) {
	r := newRig(t)
	var infos []Info
	var datas [][]byte
	r.autoAck(t, &infos, &datas)
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	r.sim.Go("send", func(p *sim.Proc) {
		r.txAB.SendChunk(p, Info{
			Kind: KindPut, Src: 0, Dst: 1, Region: ntb.RegionBypass,
			Size: uint32(len(payload)),
		}, Payload{Buf: payload, N: len(payload)}, ModeCPU)
	})
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(datas) != 1 || !bytes.Equal(datas[0], payload) {
		t.Fatal("CPU-mode payload mismatch")
	}
}

func TestSendChunkSerialisesConcurrentSenders(t *testing.T) {
	// Two senders race on the same TxChannel; the stop-and-wait ACK
	// protocol must interleave them without corrupting either chunk.
	r := newRig(t)
	var infos []Info
	var datas [][]byte
	r.autoAck(t, &infos, &datas)
	mk := func(tag byte) []byte {
		b := make([]byte, 1000)
		for i := range b {
			b[i] = tag
		}
		return b
	}
	for i := 0; i < 4; i++ {
		tag := byte('a' + i)
		r.sim.Go(fmt.Sprintf("send%c", tag), func(p *sim.Proc) {
			r.txAB.SendChunk(p, Info{
				Kind: KindPut, Region: ntb.RegionData, Size: 1000, Tag: uint32(tag),
			}, Payload{Buf: mk(tag), N: 1000}, ModeDMA)
		})
	}
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(datas) != 4 {
		t.Fatalf("delivered %d chunks", len(datas))
	}
	for i, d := range datas {
		want := byte(infos[i].Tag)
		for _, by := range d {
			if by != want {
				t.Fatalf("chunk %d corrupted: tag %c has byte %c", i, want, by)
			}
		}
	}
}

func TestSendChunkRejectsOversize(t *testing.T) {
	r := newRig(t)
	r.sim.Go("send", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("oversize chunk did not panic")
			}
		}()
		n := r.par.WindowSize + 1
		r.txAB.SendChunk(p, Info{Kind: KindPut, Size: uint32(n)},
			Payload{Buf: make([]byte, n), N: n}, ModeDMA)
	})
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPureRegisterMessage(t *testing.T) {
	// Size-zero chunks skip the window entirely (AMO-style messages).
	r := newRig(t)
	var infos []Info
	r.autoAck(t, &infos, nil)
	var elapsed sim.Duration
	r.sim.Go("send", func(p *sim.Proc) {
		start := p.Now()
		r.txAB.SendChunk(p, Info{Kind: KindAMO, SymOff: 64, Aux: 42}, Payload{}, ModeDMA)
		elapsed = p.Now().Sub(start)
	})
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Aux != 42 {
		t.Fatalf("AMO message lost: %+v", infos)
	}
	// No bulk transfer: the cycle should be dominated by the service
	// wake, well under 200us.
	if elapsed > sim.Microseconds(200) {
		t.Fatalf("register-only message took %v", elapsed)
	}
}

func TestEndpointVectorDispatch(t *testing.T) {
	r := newRig(t)
	var fired []int
	r.epB.Handle(VecBarrierStart, func() { fired = append(fired, VecBarrierStart) })
	r.epB.Handle(VecBarrierEnd, func() { fired = append(fired, VecBarrierEnd) })
	r.sim.Go("ring", func(p *sim.Proc) {
		r.epA.Ring(p, VecBarrierStart)
		p.Sleep(sim.Microseconds(10))
		r.epA.Ring(p, VecBarrierEnd)
		p.Sleep(sim.Microseconds(10))
	})
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != VecBarrierStart || fired[1] != VecBarrierEnd {
		t.Fatalf("dispatch order: %v", fired)
	}
	// Doorbell bits must have been cleared by the ISR.
	r2 := sim.New()
	_ = r2
	s2 := sim.New()
	net2 := pcie.NewNetwork(s2)
	_ = net2
	var db uint16
	r.sim.Go("check", func(p *sim.Proc) { db = r.b.DBRead(p) })
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if db != 0 {
		t.Fatalf("doorbell not cleared in ISR: %#b", db)
	}
}

func TestEndpointDispatchesOnlyTheDriversVectors(t *testing.T) {
	// An endpoint's handler table holds the driver's vectors, VecPut
	// through VecHeartbeat: registering any other panics, and a doorbell
	// bit above them reaches no handler.
	r := newRig(t)
	var fired []int
	r.epB.Handle(VecHeartbeat, func() { fired = append(fired, VecHeartbeat) })
	for _, vec := range []int{-1, VecHeartbeat + 1, 15} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("registering vector %d did not panic", vec)
				}
			}()
			r.epB.Handle(vec, func() { fired = append(fired, vec) })
		}()
	}
	r.sim.Go("ring", func(p *sim.Proc) {
		r.a.PeerDBSet(p, 1<<VecHeartbeat|1<<(VecHeartbeat+1)|1<<15)
		p.Sleep(sim.Microseconds(10))
	})
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0] != VecHeartbeat {
		t.Fatalf("handlers fired: %v, want only the heartbeat's", fired)
	}
}

func TestInfoCodecProperty(t *testing.T) {
	// Property: the scratchpad codec is the identity for every field
	// within wire widths.
	f := func(kind uint8, src, dst uint16, region uint8, dir bool, size, tag uint32, symOff, aux uint64) bool {
		in := Info{
			Kind:   Kind(kind%6 + 1),
			Src:    src % (MaxHosts + 1),
			Dst:    dst % (MaxHosts + 1),
			Region: ntb.Region(region % 2),
			Size:   size,
			SymOff: symOff,
			Tag:    tag,
			Aux:    aux,
		}
		if dir {
			in.Dir = DirLeft
		}
		r := newRig(t)
		var out Info
		r.sim.Go("codec", func(p *sim.Proc) {
			in.writeTo(p, r.a)
			out = ReadInfo(p, r.b)
		})
		if err := r.sim.Run(); err != nil {
			return false
		}
		return out == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSlotHeaderCodecProperty(t *testing.T) {
	f := func(kind uint8, src, dst uint16, dir bool, size, tag, seq uint32, symOff, aux uint64) bool {
		in := Info{
			Kind:   Kind(kind%6 + 1),
			Src:    src % (MaxHosts + 1),
			Dst:    dst % (MaxHosts + 1),
			Region: ntb.RegionData,
			Size:   size,
			SymOff: symOff,
			Tag:    tag,
			Aux:    aux,
		}
		if dir {
			in.Dir = DirLeft
		}
		buf := make([]byte, SlotHeaderBytes)
		encodeSlotHeader(buf, seq, &in)
		gotSeq, out, ok := decodeSlotHeader(buf)
		return ok && gotSeq == seq && out == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

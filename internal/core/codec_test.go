package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestTypedPutGetRoundTrip(t *testing.T) {
	w := newWorld(3, Options{})
	var gotF []float64
	var gotI []int32
	wantF := []float64{math.Pi, -math.E, 0, math.Inf(1), math.SmallestNonzeroFloat64}
	wantI := []int32{-1, 0, 1, math.MaxInt32, math.MinInt32}
	err := w.Run(func(p *sim.Proc, pe *PE) {
		f := pe.MustMalloc(p, len(wantF)*8)
		i32 := pe.MustMalloc(p, len(wantI)*4)
		pe.BarrierAll(p)
		if pe.ID() == 0 {
			Put(p, pe, 1, f, wantF)
			Put(p, pe, 2, i32, wantI)
		}
		pe.BarrierAll(p)
		switch pe.ID() {
		case 1:
			gotF = make([]float64, len(wantF))
			Get(p, pe, 1, f, gotF) // self get
		case 2:
			gotI = make([]int32, len(wantI))
			LocalGet(p, pe, i32, gotI)
		}
		pe.BarrierAll(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantF {
		if gotF[i] != wantF[i] && !(math.IsNaN(gotF[i]) && math.IsNaN(wantF[i])) {
			t.Errorf("float64[%d] = %v, want %v", i, gotF[i], wantF[i])
		}
	}
	for i := range wantI {
		if gotI[i] != wantI[i] {
			t.Errorf("int32[%d] = %d, want %d", i, gotI[i], wantI[i])
		}
	}
}

func TestScalarPutGet(t *testing.T) {
	w := newWorld(2, Options{})
	var got uint64
	err := w.Run(func(p *sim.Proc, pe *PE) {
		sym := pe.MustMalloc(p, 8)
		pe.BarrierAll(p)
		if pe.ID() == 0 {
			PutScalar(p, pe, 1, sym, uint64(0xCAFEBABE_DEADBEEF))
		}
		pe.BarrierAll(p)
		if pe.ID() == 0 {
			got = GetScalar[uint64](p, pe, 1, sym)
		}
		pe.BarrierAll(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 0xCAFEBABE_DEADBEEF {
		t.Fatalf("scalar round trip = %#x", got)
	}
}

func TestStridedIPutIGet(t *testing.T) {
	w := newWorld(2, Options{})
	var remote, back []int64
	err := w.Run(func(p *sim.Proc, pe *PE) {
		sym := pe.MustMalloc(p, 10*8)
		if pe.ID() == 1 {
			LocalPut(p, pe, sym, make([]int64, 10))
		}
		pe.BarrierAll(p)
		if pe.ID() == 0 {
			// Place 1,2,3 at remote even indices from a stride-2 source.
			src := []int64{1, 0, 2, 0, 3}
			IPut(p, pe, 1, sym, src, 2, 2, 3)
		}
		pe.BarrierAll(p)
		if pe.ID() == 1 {
			remote = make([]int64, 10)
			LocalGet(p, pe, sym, remote)
		}
		if pe.ID() == 0 {
			back = make([]int64, 6)
			IGet(p, pe, 1, sym, back, 2, 2, 3)
		}
		pe.BarrierAll(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	wantRemote := []int64{1, 0, 2, 0, 3, 0, 0, 0, 0, 0}
	for i := range wantRemote {
		if remote[i] != wantRemote[i] {
			t.Fatalf("remote = %v, want %v", remote, wantRemote)
		}
	}
	wantBack := []int64{1, 0, 2, 0, 3, 0}
	for i := range wantBack {
		if back[i] != wantBack[i] {
			t.Fatalf("back = %v, want %v", back, wantBack)
		}
	}
}

func TestStridedBoundsChecked(t *testing.T) {
	w := newWorld(2, Options{})
	err := w.Run(func(p *sim.Proc, pe *PE) {
		sym := pe.MustMalloc(p, 80)
		pe.BarrierAll(p)
		if pe.ID() == 0 {
			for _, f := range []func(){
				func() { IPut(p, pe, 1, sym, []int64{1, 2}, 1, 3, 2) },    // src overrun
				func() { IGet(p, pe, 1, sym, make([]int64, 2), 3, 1, 2) }, // dst overrun
				func() { IPut(p, pe, 1, sym, []int64{1}, 0, 1, 1) },       // bad stride
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Error("strided bounds violation did not panic")
						}
					}()
					f()
				}()
			}
		}
		pe.BarrierAll(p)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTypedLocalOpsSpanStagePiecesAtOneCopyCost(t *testing.T) {
	// Objects several stage pieces long, with an all-zero piece in the
	// middle, round-trip exactly and cost what one LocalWrite of their
	// bytes costs.
	w := newWorld(3, Options{})
	const n = 3*localStage/4 + 5 // int32s: three pieces and a tail
	want := make([]int32, n)
	for i := range want {
		if i < localStage/4 || i >= 2*localStage/4 {
			want[i] = int32(7*i - 500)
		}
	}
	wantBytes := make([]byte, 4*n)
	encodeSlice(want, wantBytes)
	var typed, raw sim.Duration
	var got []int32
	var gotBytes []byte
	err := w.Run(func(p *sim.Proc, pe *PE) {
		sym := pe.MustMalloc(p, 4*n)
		if pe.ID() != 0 {
			return
		}
		start := p.Now()
		LocalPut(p, pe, sym, want)
		typed = p.Now().Sub(start)
		gotBytes = make([]byte, 4*n)
		pe.LocalRead(p, sym, gotBytes)
		got = make([]int32, n)
		LocalGet(p, pe, sym, got)
		start = p.Now()
		pe.LocalWrite(p, sym, wantBytes)
		raw = p.Now().Sub(start)
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(gotBytes) != string(wantBytes) {
		t.Fatal("LocalPut stored different bytes than the encoding")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("int32[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if typed != raw {
		t.Fatalf("LocalPut took %v, a LocalWrite of its bytes %v", typed, raw)
	}
}

func TestCodecPropertyRoundTrip(t *testing.T) {
	// Property: encode/decode is the identity for every scalar type.
	check := func(e error) {
		if e != nil {
			t.Error(e)
		}
	}
	check(quick.Check(func(v []int64) bool {
		buf := make([]byte, len(v)*8)
		encodeSlice(v, buf)
		out := make([]int64, len(v))
		decodeSlice(buf, out)
		for i := range v {
			if out[i] != v[i] {
				return false
			}
		}
		return true
	}, nil))
	check(quick.Check(func(v []float32) bool {
		buf := make([]byte, len(v)*4)
		encodeSlice(v, buf)
		out := make([]float32, len(v))
		decodeSlice(buf, out)
		for i := range v {
			if out[i] != v[i] && !(math.IsNaN(float64(out[i])) && math.IsNaN(float64(v[i]))) {
				return false
			}
		}
		return true
	}, nil))
	check(quick.Check(func(v []uint32) bool {
		buf := make([]byte, len(v)*4)
		encodeSlice(v, buf)
		out := make([]uint32, len(v))
		decodeSlice(buf, out)
		for i := range v {
			if out[i] != v[i] {
				return false
			}
		}
		return true
	}, nil))
}

func TestSizeOf(t *testing.T) {
	if sizeOf[int32]() != 4 || sizeOf[uint32]() != 4 || sizeOf[float32]() != 4 {
		t.Error("32-bit scalars must be 4 bytes")
	}
	if sizeOf[int64]() != 8 || sizeOf[uint64]() != 8 || sizeOf[float64]() != 8 {
		t.Error("64-bit scalars must be 8 bytes")
	}
}

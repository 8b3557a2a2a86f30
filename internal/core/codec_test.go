package core

import (
	"encoding/binary"
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

// nativeBytes encodes v in the host's byte order with encoding/binary,
// independently of bytesOf.
func nativeBytes[T int32 | int64](v []T) []byte {
	var b []byte
	for _, x := range v {
		if sizeOf[T]() == 4 {
			b = binary.NativeEndian.AppendUint32(b, uint32(x))
		} else {
			b = binary.NativeEndian.AppendUint64(b, uint64(x))
		}
	}
	return b
}

func TestTypedLocalOpsSpanStagePiecesAtOneCopyCost(t *testing.T) {
	// Objects of several kilobytes, with an all-zero run in the middle,
	// round-trip exactly, store exactly their native-order bytes, and
	// cost what one LocalWrite of those bytes costs.
	w := newWorld(3, Options{})
	const n = 3*256 + 5
	want := make([]int32, n)
	for i := range want {
		if i < 256 || i >= 2*256 {
			want[i] = int32(7*i - 500)
		}
	}
	wantBytes := nativeBytes(want)
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
		t.Fatal("LocalPut stored different bytes than the native-order encoding")
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
	// Property: a typed view is exactly the native-order encoding of its
	// elements, for each width and for floats' bit patterns, so what a
	// typed put stores is what the runtime's word readers decode.
	check := func(e error) {
		if e != nil {
			t.Error(e)
		}
	}
	check(quick.Check(func(v []int64) bool {
		return string(bytesOf(v)) == string(nativeBytes(v))
	}, nil))
	check(quick.Check(func(v []int32) bool {
		return string(bytesOf(v)) == string(nativeBytes(v))
	}, nil))
	check(quick.Check(func(v []float32) bool {
		b := bytesOf(v)
		for i, x := range v {
			if binary.NativeEndian.Uint32(b[4*i:]) != math.Float32bits(x) {
				return false
			}
		}
		return len(b) == 4*len(v)
	}, nil))
	check(quick.Check(func(v []float64) bool {
		b := bytesOf(v)
		for i, x := range v {
			if binary.NativeEndian.Uint64(b[8*i:]) != math.Float64bits(x) {
				return false
			}
		}
		return len(b) == 8*len(v)
	}, nil))
	if bytesOf([]uint64(nil)) != nil || len(bytesOf([]uint32{})) != 0 {
		t.Error("an empty slice's view is not empty")
	}
}

func TestTypedWordIsTheRuntimeWord(t *testing.T) {
	// A word a typed put stores is the word the runtime's own readers
	// see: WaitUntilInt64 is satisfied by it, peekInt64 reads it, and an
	// AMO fetches and adds to it, whatever the host's byte order.
	const v = -0x0102030405060708
	w := newWorld(2, Options{})
	var waited, peeked, fetched, after int64
	err := w.Run(func(p *sim.Proc, pe *PE) {
		sym := pe.MustMalloc(p, 8)
		pe.BarrierAll(p)
		switch pe.ID() {
		case 0:
			Put(p, pe, 1, sym, []int64{v})
		case 1:
			waited = pe.WaitUntilInt64(p, sym, CmpEQ, v)
			peeked = pe.peekInt64(sym)
		}
		pe.BarrierAll(p)
		if pe.ID() == 0 {
			fetched = pe.FetchAddInt64(p, 1, sym, 9)
			after = GetScalar[int64](p, pe, 1, sym)
		}
		pe.BarrierAll(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if waited != v || peeked != v || fetched != v || after != v+9 {
		t.Fatalf("wait %#x, peek %#x, fetch-add %#x then %#x; want %#x and %#x", waited, peeked, fetched, after, int64(v), int64(v+9))
	}
}

func TestTypedOpsAddNoAllocations(t *testing.T) {
	// Typed local ops allocate nothing, and a typed put or get allocates
	// exactly what PutBytes or GetBytes of the same bytes does: no
	// marshalled copy rides along.
	w := newWorld(2, Options{})
	data := []int64{1, -2, 3, 1 << 40}
	raw := nativeBytes(data)
	err := w.Run(func(p *sim.Proc, pe *PE) {
		sym := pe.MustMalloc(p, 8*len(data))
		pe.BarrierAll(p)
		if pe.ID() == 0 {
			got, gotRaw := make([]int64, len(data)), make([]byte, len(raw))
			allocs := func(op func()) float64 { return testing.AllocsPerRun(20, op) }
			if n := allocs(func() { LocalPut(p, pe, sym, data) }); n != 0 {
				t.Errorf("LocalPut: %v allocations, want 0", n)
			}
			if n := allocs(func() { LocalGet(p, pe, sym, got) }); n != 0 {
				t.Errorf("LocalGet: %v allocations, want 0", n)
			}
			typed, byteOp := allocs(func() { Put(p, pe, 1, sym, data) }), allocs(func() { pe.PutBytes(p, 1, sym, raw) })
			if typed != byteOp {
				t.Errorf("Put: %v allocations, PutBytes of its bytes %v", typed, byteOp)
			}
			typed, byteOp = allocs(func() { Get(p, pe, 1, sym, got) }), allocs(func() { pe.GetBytes(p, 1, sym, gotRaw) })
			if typed != byteOp {
				t.Errorf("Get: %v allocations, GetBytes of its bytes %v", typed, byteOp)
			}
			if string(bytesOf(got)) != string(raw) || string(gotRaw) != string(raw) {
				t.Error("the gets returned different bytes than were put")
			}
		}
		pe.BarrierAll(p)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSizeOf(t *testing.T) {
	if sizeOf[int32]() != 4 || sizeOf[uint32]() != 4 || sizeOf[float32]() != 4 {
		t.Error("32-bit scalars must be 4 bytes")
	}
	if sizeOf[int64]() != 8 || sizeOf[uint64]() != 8 || sizeOf[float64]() != 8 {
		t.Error("64-bit scalars must be 8 bytes")
	}
}

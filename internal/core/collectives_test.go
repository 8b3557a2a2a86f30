package core

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/sim"
)

func TestBroadcastBytes(t *testing.T) {
	w := newWorld(4, Options{})
	const n = 30_000
	want := bytes.Repeat([]byte{0xC3}, n)
	got := make([][]byte, 4)
	err := w.Run(func(p *sim.Proc, pe *PE) {
		sym := pe.MustMalloc(p, n)
		if pe.ID() == 2 {
			pe.LocalWrite(p, sym, want)
		}
		pe.BarrierAll(p)
		pe.BroadcastBytes(p, 2, sym, n)
		got[pe.ID()] = make([]byte, n)
		pe.LocalRead(p, sym, got[pe.ID()])
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, g := range got {
		if !bytes.Equal(g, want) {
			t.Errorf("pe %d broadcast payload corrupted", id)
		}
	}
}

func TestFCollectBytes(t *testing.T) {
	w := newWorld(3, Options{})
	const n = 1000
	got := make([][]byte, 3)
	err := w.Run(func(p *sim.Proc, pe *PE) {
		src := pe.MustMalloc(p, n)
		dst := pe.MustMalloc(p, 3*n)
		pe.LocalWrite(p, src, bytes.Repeat([]byte{byte('A' + pe.ID())}, n))
		pe.BarrierAll(p)
		pe.FCollectBytes(p, src, dst, n)
		got[pe.ID()] = make([]byte, 3*n)
		pe.LocalRead(p, dst, got[pe.ID()])
	})
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, tag := range []byte{'A', 'B', 'C'} {
		want = append(want, bytes.Repeat([]byte{tag}, n)...)
	}
	for id, g := range got {
		if !bytes.Equal(g, want) {
			t.Errorf("pe %d fcollect result wrong", id)
		}
	}
}

func TestAllToAllBytes(t *testing.T) {
	w := newWorld(3, Options{})
	const n = 512
	got := make([][]byte, 3)
	err := w.Run(func(p *sim.Proc, pe *PE) {
		src := pe.MustMalloc(p, 3*n)
		dst := pe.MustMalloc(p, 3*n)
		// Block for target t is tagged (me, t).
		for tgt := 0; tgt < 3; tgt++ {
			pe.LocalWrite(p, src+SymAddr(tgt*n),
				bytes.Repeat([]byte{byte(pe.ID()*10 + tgt)}, n))
		}
		pe.BarrierAll(p)
		pe.AllToAllBytes(p, src, dst, n)
		got[pe.ID()] = make([]byte, 3*n)
		pe.LocalRead(p, dst, got[pe.ID()])
	})
	if err != nil {
		t.Fatal(err)
	}
	for me, g := range got {
		for from := 0; from < 3; from++ {
			want := byte(from*10 + me)
			block := g[from*n : (from+1)*n]
			for _, b := range block {
				if b != want {
					t.Fatalf("pe %d block from %d holds %d, want %d", me, from, b, want)
				}
			}
		}
	}
}

func TestReduceSumInt64(t *testing.T) {
	w := newWorld(4, Options{})
	const nelems = 100
	results := make([][]int64, 4)
	err := w.Run(func(p *sim.Proc, pe *PE) {
		src := pe.MustMalloc(p, nelems*8)
		dst := pe.MustMalloc(p, nelems*8)
		vals := make([]int64, nelems)
		for i := range vals {
			vals[i] = int64(pe.ID()*1000 + i)
		}
		LocalPut(p, pe, src, vals)
		pe.BarrierAll(p)
		Reduce[int64](p, pe, OpSum, dst, src, nelems)
		out := make([]int64, nelems)
		LocalGet(p, pe, dst, out)
		results[pe.ID()] = out
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, out := range results {
		for i, v := range out {
			want := int64((0+1+2+3)*1000 + 4*i)
			if v != want {
				t.Fatalf("pe %d sum[%d] = %d, want %d", id, i, v, want)
			}
		}
	}
}

func TestReduceMinMaxFloat64(t *testing.T) {
	w := newWorld(3, Options{})
	var minOut, maxOut float64
	err := w.Run(func(p *sim.Proc, pe *PE) {
		src := pe.MustMalloc(p, 8)
		dst := pe.MustMalloc(p, 8)
		LocalPut(p, pe, src, []float64{float64(pe.ID()*pe.ID()) - 2.5})
		pe.BarrierAll(p)
		Reduce[float64](p, pe, OpMin, dst, src, 1)
		if pe.ID() == 1 {
			var out [1]float64
			LocalGet(p, pe, dst, out[:])
			minOut = out[0]
		}
		Reduce[float64](p, pe, OpMax, dst, src, 1)
		if pe.ID() == 2 {
			var out [1]float64
			LocalGet(p, pe, dst, out[:])
			maxOut = out[0]
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if minOut != -2.5 {
		t.Errorf("min = %v, want -2.5", minOut)
	}
	if maxOut != 1.5 {
		t.Errorf("max = %v, want 1.5", maxOut)
	}
}

func TestReduceProd(t *testing.T) {
	w := newWorld(3, Options{})
	var out int64
	err := w.Run(func(p *sim.Proc, pe *PE) {
		src := pe.MustMalloc(p, 8)
		dst := pe.MustMalloc(p, 8)
		LocalPut(p, pe, src, []int64{int64(pe.ID()) + 2}) // 2,3,4
		pe.BarrierAll(p)
		Reduce[int64](p, pe, OpProd, dst, src, 1)
		if pe.ID() == 0 {
			var o [1]int64
			LocalGet(p, pe, dst, o[:])
			out = o[0]
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if out != 24 {
		t.Errorf("prod = %d, want 24", out)
	}
}

func TestReduceInPlace(t *testing.T) {
	// src == dst must work (common SPMD idiom).
	w := newWorld(3, Options{})
	outs := make([]int64, 3)
	err := w.Run(func(p *sim.Proc, pe *PE) {
		buf := pe.MustMalloc(p, 8)
		LocalPut(p, pe, buf, []int64{int64(pe.ID() + 1)})
		pe.BarrierAll(p)
		Reduce[int64](p, pe, OpSum, buf, buf, 1)
		var o [1]int64
		LocalGet(p, pe, buf, o[:])
		outs[pe.ID()] = o[0]
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, v := range outs {
		if v != 6 {
			t.Errorf("pe %d in-place sum = %d, want 6", id, v)
		}
	}
}

func TestCollectVariableSizes(t *testing.T) {
	w := newWorld(3, Options{})
	results := make([][]int32, 3)
	err := w.Run(func(p *sim.Proc, pe *PE) {
		mine := pe.ID() + 1 // PE0: 1 elem, PE1: 2, PE2: 3
		src := pe.MustMalloc(p, 3*4)
		dst := pe.MustMalloc(p, 6*4)
		vals := make([]int32, mine)
		for i := range vals {
			vals[i] = int32(pe.ID()*100 + i)
		}
		LocalPut(p, pe, src, vals)
		pe.BarrierAll(p)
		Collect[int32](p, pe, dst, src, mine)
		out := make([]int32, 6)
		LocalGet(p, pe, dst, out)
		results[pe.ID()] = out
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{0, 100, 101, 200, 201, 202}
	for id, out := range results {
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("pe %d collect = %v, want %v", id, out, want)
			}
		}
	}
}

func TestReduceLeavesHeapClean(t *testing.T) {
	// The collective's scratch allocations must be freed symmetrically.
	w := newWorld(3, Options{})
	err := w.Run(func(p *sim.Proc, pe *PE) {
		src := pe.MustMalloc(p, 64)
		dst := pe.MustMalloc(p, 64)
		LocalPut(p, pe, src, []float64{1, 2, 3, 4, 5, 6, 7, 8})
		pe.BarrierAll(p)
		before := pe.HeapStats().Live
		Reduce[float64](p, pe, OpSum, dst, src, 8)
		after := pe.HeapStats().Live
		if before != after {
			t.Errorf("pe %d leaked %d allocations in Reduce", pe.ID(), after-before)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = math.Pi
}

func TestBroadcastPipelinedIntegrity(t *testing.T) {
	for _, root := range []int{0, 3} {
		root := root
		w := newWorld(5, Options{})
		const n = 300_000
		want := make([]byte, n)
		for i := range want {
			want[i] = byte(i*13 + root)
		}
		got := make([][]byte, 5)
		err := w.Run(func(p *sim.Proc, pe *PE) {
			sym := pe.MustMalloc(p, n)
			if pe.ID() == root {
				pe.LocalWrite(p, sym, want)
			}
			pe.BarrierAll(p)
			pe.BroadcastBytesPipelined(p, root, sym, n)
			got[pe.ID()] = make([]byte, n)
			pe.LocalRead(p, sym, got[pe.ID()])
		})
		if err != nil {
			t.Fatalf("root=%d: %v", root, err)
		}
		for id, g := range got {
			if !bytes.Equal(g, want) {
				t.Fatalf("root=%d: pe %d pipelined broadcast corrupted", root, id)
			}
		}
	}
}

func TestBroadcastPipelinedHeapClean(t *testing.T) {
	w := newWorld(3, Options{})
	err := w.Run(func(p *sim.Proc, pe *PE) {
		sym := pe.MustMalloc(p, 4096)
		pe.BarrierAll(p)
		before := pe.HeapStats().Live
		pe.BroadcastBytesPipelined(p, 0, sym, 4096)
		after := pe.HeapStats().Live
		if before != after {
			t.Errorf("pe %d leaked %d allocations", pe.ID(), after-before)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTypedFCollect(t *testing.T) {
	w := newWorld(3, Options{})
	results := make([][]float64, 3)
	err := w.Run(func(p *sim.Proc, pe *PE) {
		src := pe.MustMalloc(p, 2*8)
		dst := pe.MustMalloc(p, 6*8)
		LocalPut(p, pe, src, []float64{float64(pe.ID()), float64(pe.ID()) + 0.5})
		pe.BarrierAll(p)
		FCollect[float64](p, pe, dst, src, 2)
		out := make([]float64, 6)
		LocalGet(p, pe, dst, out)
		results[pe.ID()] = out
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0.5, 1, 1.5, 2, 2.5}
	for id, out := range results {
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("pe %d fcollect = %v, want %v", id, out, want)
			}
		}
	}
}

func TestBroadcastFromNonZeroRootAfterBarrierAlgos(t *testing.T) {
	// Collectives must work under every barrier algorithm option they
	// internally rely on.
	for _, algo := range barrierAlgos() {
		w := newWorldOpts(4, Options{Barrier: algo})
		var got int64
		err := w.Run(func(p *sim.Proc, pe *PE) {
			v := pe.MustMalloc(p, 8)
			if pe.ID() == 3 {
				LocalPut(p, pe, v, []int64{1234})
			}
			pe.BarrierAll(p)
			pe.BroadcastBytes(p, 3, v, 8)
			if pe.ID() == 1 {
				var out [1]int64
				LocalGet(p, pe, v, out[:])
				got = out[0]
			}
		})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if got != 1234 {
			t.Fatalf("%v: broadcast = %d", algo, got)
		}
	}
}

package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/driver"
	"repro/internal/fabric"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/sim"
)

// newWorld builds an n-host ring world with the default profile.
func newWorld(n int, opts Options) *World {
	s := sim.New()
	c, err := fabric.NewRing(s, model.Default(), n)
	if err != nil {
		panic(err)
	}
	return NewWorld(c, opts)
}

func TestInitAndIdentity(t *testing.T) {
	w := newWorld(3, Options{})
	var ids, sizes []int
	err := w.Run(func(p *sim.Proc, pe *PE) {
		ids = append(ids, pe.ID())
		sizes = append(sizes, pe.NumPEs())
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("ran %d PEs", len(ids))
	}
	seen := map[int]bool{}
	for i, id := range ids {
		seen[id] = true
		if sizes[i] != 3 {
			t.Errorf("NumPEs = %d", sizes[i])
		}
	}
	if !seen[0] || !seen[1] || !seen[2] {
		t.Errorf("ids = %v", ids)
	}
}

func TestRingOnlyOptionsRejectedOffRing(t *testing.T) {
	// Pair clusters are full worlds now, but the pipelined link protocol
	// and shortest-arc routing exist only on the ring.
	for _, opts := range []Options{{Pipeline: 4}, {Routing: RouteShortest}} {
		func() {
			s := sim.New()
			c, err := fabric.NewPair(s, model.Default())
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if recover() == nil {
					t.Fatalf("NewWorld accepted %+v on a pair cluster", opts)
				}
			}()
			NewWorld(c, opts)
		}()
	}
}

func TestMallocSymmetricOffsets(t *testing.T) {
	w := newWorld(3, Options{})
	offs := make([][]SymAddr, 3)
	err := w.Run(func(p *sim.Proc, pe *PE) {
		for _, size := range []int{64, 1000, 8, 4096} {
			offs[pe.ID()] = append(offs[pe.ID()], pe.MustMalloc(p, size))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for peID := 1; peID < 3; peID++ {
		for i := range offs[0] {
			if offs[peID][i] != offs[0][i] {
				t.Fatalf("allocation %d not symmetric: pe0=%d pe%d=%d",
					i, offs[0][i], peID, offs[peID][i])
			}
		}
	}
}

func TestPutNeighborIntegrity(t *testing.T) {
	w := newWorld(3, Options{})
	const n = 100_000
	want := make([]byte, n)
	rand.New(rand.NewSource(7)).Read(want)
	var got []byte
	err := w.Run(func(p *sim.Proc, pe *PE) {
		sym := pe.MustMalloc(p, n)
		if pe.ID() == 0 {
			pe.PutBytes(p, 1, sym, want)
		}
		pe.BarrierAll(p)
		if pe.ID() == 1 {
			got = make([]byte, n)
			pe.LocalRead(p, sym, got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("put data corrupted")
	}
}

func TestPutTwoHopsViaBypass(t *testing.T) {
	w := newWorld(3, Options{})
	const n = 200_000
	want := make([]byte, n)
	rand.New(rand.NewSource(8)).Read(want)
	var got []byte
	var midStats Stats
	err := w.Run(func(p *sim.Proc, pe *PE) {
		sym := pe.MustMalloc(p, n)
		if pe.ID() == 0 {
			pe.PutBytes(p, 2, sym, want) // rightward: 0 -> 1 -> 2
		}
		pe.BarrierAll(p)
		switch pe.ID() {
		case 1:
			midStats = pe.Stats()
		case 2:
			got = make([]byte, n)
			pe.LocalRead(p, sym, got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("2-hop put corrupted")
	}
	if midStats.ChunksForwarded == 0 {
		t.Fatal("intermediate host forwarded nothing; bypass path unused")
	}
}

func TestPutSelf(t *testing.T) {
	w := newWorld(2, Options{})
	err := w.Run(func(p *sim.Proc, pe *PE) {
		sym := pe.MustMalloc(p, 16)
		pe.PutBytes(p, pe.ID(), sym, []byte("hello, self-put!"))
		buf := make([]byte, 16)
		pe.LocalRead(p, sym, buf)
		if string(buf) != "hello, self-put!" {
			t.Errorf("pe %d self put read %q", pe.ID(), buf)
		}
		pe.BarrierAll(p)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGetIntegrityAllHops(t *testing.T) {
	for _, hops := range []int{1, 2} {
		hops := hops
		t.Run(fmt.Sprintf("hops=%d", hops), func(t *testing.T) {
			w := newWorld(3, Options{})
			const n = 70_000
			want := make([]byte, n)
			rand.New(rand.NewSource(int64(hops))).Read(want)
			var got []byte
			err := w.Run(func(p *sim.Proc, pe *PE) {
				sym := pe.MustMalloc(p, n)
				owner := hops // PE "hops" is that many rightward hops from 0
				if pe.ID() == owner {
					pe.LocalWrite(p, sym, want)
				}
				pe.BarrierAll(p)
				if pe.ID() == 0 {
					got = make([]byte, n)
					pe.GetBytes(p, owner, sym, got)
				}
				pe.BarrierAll(p)
			})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("get data corrupted")
			}
		})
	}
}

func TestGetSelf(t *testing.T) {
	w := newWorld(2, Options{})
	err := w.Run(func(p *sim.Proc, pe *PE) {
		sym := pe.MustMalloc(p, 8)
		pe.LocalWrite(p, sym, []byte("01234567"))
		buf := make([]byte, 8)
		pe.GetBytes(p, pe.ID(), sym, buf)
		if string(buf) != "01234567" {
			t.Errorf("self get read %q", buf)
		}
		pe.BarrierAll(p)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// measureOp runs an operation on PE 0 of a fresh 3-host world and returns
// its virtual duration.
func measureOp(t *testing.T, opts Options, op func(p *sim.Proc, pe *PE, sym SymAddr)) sim.Duration {
	t.Helper()
	w := newWorld(3, opts)
	var elapsed sim.Duration
	err := w.Run(func(p *sim.Proc, pe *PE) {
		sym := pe.MustMalloc(p, 1<<20)
		pe.BarrierAll(p)
		if pe.ID() == 0 {
			start := p.Now()
			op(p, pe, sym)
			elapsed = p.Now().Sub(start)
		}
		pe.BarrierAll(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	return elapsed
}

func TestPutLatencyHopInsensitive(t *testing.T) {
	const n = 256 << 10
	data := make([]byte, n)
	oneHop := measureOp(t, Options{}, func(p *sim.Proc, pe *PE, sym SymAddr) {
		pe.PutBytes(p, 1, sym, data)
	})
	twoHop := measureOp(t, Options{}, func(p *sim.Proc, pe *PE, sym SymAddr) {
		pe.PutBytes(p, 2, sym, data)
	})
	ratio := float64(twoHop) / float64(oneHop)
	if ratio > 1.15 {
		t.Fatalf("put latency should be hop-insensitive: 1hop=%v 2hop=%v (ratio %.2f)",
			oneHop, twoHop, ratio)
	}
}

func TestGetLatencyHopSensitive(t *testing.T) {
	const n = 64 << 10
	buf := make([]byte, n)
	oneHop := measureOp(t, Options{}, func(p *sim.Proc, pe *PE, sym SymAddr) {
		pe.GetBytes(p, 1, sym, buf)
	})
	twoHop := measureOp(t, Options{}, func(p *sim.Proc, pe *PE, sym SymAddr) {
		pe.GetBytes(p, 2, sym, buf)
	})
	ratio := float64(twoHop) / float64(oneHop)
	if ratio < 1.25 {
		t.Fatalf("get latency should grow with hops: 1hop=%v 2hop=%v (ratio %.2f)",
			oneHop, twoHop, ratio)
	}
}

func TestGetMuchSlowerThanPut(t *testing.T) {
	// The paper's central asymmetry: one-sided puts stream; gets are
	// round-trip bound.
	const n = 256 << 10
	buf := make([]byte, n)
	put := measureOp(t, Options{}, func(p *sim.Proc, pe *PE, sym SymAddr) {
		pe.PutBytes(p, 1, sym, buf)
	})
	get := measureOp(t, Options{}, func(p *sim.Proc, pe *PE, sym SymAddr) {
		pe.GetBytes(p, 1, sym, buf)
	})
	if float64(get) < 3*float64(put) {
		t.Fatalf("get (%v) should be several times slower than put (%v)", get, put)
	}
}

func TestDMABeatsMemcpyForLargePut(t *testing.T) {
	const n = 512 << 10
	data := make([]byte, n)
	dma := measureOp(t, Options{Mode: driver.ModeDMA}, func(p *sim.Proc, pe *PE, sym SymAddr) {
		pe.PutBytes(p, 1, sym, data)
	})
	cpu := measureOp(t, Options{Mode: driver.ModeCPU}, func(p *sim.Proc, pe *PE, sym SymAddr) {
		pe.PutBytes(p, 1, sym, data)
	})
	if dma >= cpu {
		t.Fatalf("DMA put (%v) should beat memcpy put (%v) at 512KiB", dma, cpu)
	}
}

func TestNBIAndQuiet(t *testing.T) {
	w := newWorld(3, Options{})
	const n = 50_000
	a := bytes.Repeat([]byte{0xAA}, n)
	b := bytes.Repeat([]byte{0xBB}, n)
	var got1, got2 []byte
	err := w.Run(func(p *sim.Proc, pe *PE) {
		s1 := pe.MustMalloc(p, n)
		s2 := pe.MustMalloc(p, n)
		pe.BarrierAll(p)
		if pe.ID() == 0 {
			pe.PutBytesNBI(p, 1, s1, a)
			pe.PutBytesNBI(p, 2, s2, b)
			if pe.Outstanding() == 0 {
				t.Error("NBI ops completed synchronously")
			}
			pe.Quiet(p)
			if pe.Outstanding() != 0 {
				t.Error("Quiet returned with outstanding ops")
			}
		}
		pe.BarrierAll(p)
		switch pe.ID() {
		case 1:
			got1 = make([]byte, n)
			pe.LocalRead(p, s1, got1)
		case 2:
			got2 = make([]byte, n)
			pe.LocalRead(p, s2, got2)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got1, a) || !bytes.Equal(got2, b) {
		t.Fatal("NBI put data corrupted")
	}
}

func TestGetNBI(t *testing.T) {
	w := newWorld(3, Options{})
	const n = 30_000
	want := bytes.Repeat([]byte{0x5C}, n)
	got := make([]byte, n)
	err := w.Run(func(p *sim.Proc, pe *PE) {
		sym := pe.MustMalloc(p, n)
		if pe.ID() == 2 {
			pe.LocalWrite(p, sym, want)
		}
		pe.BarrierAll(p)
		if pe.ID() == 0 {
			pe.GetBytesNBI(p, 2, sym, got)
			pe.Quiet(p)
		}
		pe.BarrierAll(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("NBI get corrupted")
	}
}

func TestWaitUntilProducerConsumer(t *testing.T) {
	w := newWorld(2, Options{})
	const n = 10_000
	payload := bytes.Repeat([]byte{0x42}, n)
	var got []byte
	err := w.Run(func(p *sim.Proc, pe *PE) {
		data := pe.MustMalloc(p, n)
		flag := pe.MustMalloc(p, 8)
		pe.BarrierAll(p)
		if pe.ID() == 0 {
			pe.PutBytes(p, 1, data, payload)
			pe.Fence(p)
			PutScalar[int64](p, pe, 1, flag, 1)
		} else {
			pe.WaitUntilInt64(p, flag, CmpEQ, 1)
			got = make([]byte, n)
			pe.LocalRead(p, data, got)
		}
		pe.BarrierAll(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("flagged data not delivered before flag observed")
	}
}

func TestStatsCounters(t *testing.T) {
	w := newWorld(3, Options{})
	var st Stats
	err := w.Run(func(p *sim.Proc, pe *PE) {
		sym := pe.MustMalloc(p, 4096)
		pe.BarrierAll(p)
		if pe.ID() == 0 {
			pe.PutBytes(p, 1, sym, make([]byte, 4096))
			pe.GetBytes(p, 1, sym, make([]byte, 512))
			pe.FetchAddInt64(p, 1, sym, 1)
			st = pe.Stats()
		}
		pe.BarrierAll(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Puts != 1 || st.PutBytes != 4096 {
		t.Errorf("puts=%d putBytes=%d", st.Puts, st.PutBytes)
	}
	if st.Gets != 1 || st.GetBytes != 512 {
		t.Errorf("gets=%d getBytes=%d", st.Gets, st.GetBytes)
	}
	if st.AMOs != 1 {
		t.Errorf("amos=%d", st.AMOs)
	}
	if st.ChunksSent == 0 {
		t.Error("no chunks counted")
	}
}

func TestFinalizePreventsUse(t *testing.T) {
	w := newWorld(2, Options{})
	err := w.Run(func(p *sim.Proc, pe *PE) {
		sym := pe.MustMalloc(p, 64)
		pe.BarrierAll(p)
		pe.Finalize(p)
		if pe.ID() == 0 {
			defer func() {
				if recover() == nil {
					t.Error("put after Finalize did not panic")
				}
			}()
			pe.PutBytes(p, 1, sym, make([]byte, 8))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPutToBadPEPanics(t *testing.T) {
	w := newWorld(2, Options{})
	err := w.Run(func(p *sim.Proc, pe *PE) {
		sym := pe.MustMalloc(p, 8)
		pe.BarrierAll(p)
		if pe.ID() == 0 {
			func() {
				defer func() {
					if recover() == nil {
						t.Error("put to PE 9 did not panic")
					}
				}()
				pe.PutBytes(p, 9, sym, make([]byte, 8))
			}()
		}
		pe.BarrierAll(p)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPutOutsideAllocationPanics(t *testing.T) {
	// The destination range check happens at the owner's service thread;
	// the panic surfaces as a simulation error.
	w := newWorld(2, Options{})
	err := w.Run(func(p *sim.Proc, pe *PE) {
		sym := pe.MustMalloc(p, 64)
		pe.BarrierAll(p)
		if pe.ID() == 0 {
			pe.PutBytes(p, 1, sym+32, make([]byte, 64)) // runs past the block
		}
		pe.BarrierAll(p)
	})
	if err == nil {
		t.Fatal("out-of-allocation put did not fail the simulation")
	}
}

func TestManyPEsRing(t *testing.T) {
	// An 8-host ring exercises longer forwarding chains.
	w := newWorld(8, Options{})
	const n = 10_000
	sums := make([]byte, 8)
	err := w.Run(func(p *sim.Proc, pe *PE) {
		sym := pe.MustMalloc(p, n)
		pe.BarrierAll(p)
		// Everyone puts a tagged pattern to PE (id+3)%8: 3 hops each.
		target := (pe.ID() + 3) % 8
		pe.PutBytes(p, target, sym, bytes.Repeat([]byte{byte(pe.ID() + 1)}, n))
		pe.BarrierAll(p)
		buf := make([]byte, n)
		pe.LocalRead(p, sym, buf)
		sums[pe.ID()] = buf[n-1]
		pe.BarrierAll(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, tag := range sums {
		wantFrom := (id - 3 + 8) % 8
		if tag != byte(wantFrom+1) {
			t.Errorf("pe %d holds tag %d, want from pe %d", id, tag, wantFrom)
		}
	}
}

func TestGlobalExit(t *testing.T) {
	w := newWorld(3, Options{})
	err := w.Run(func(p *sim.Proc, pe *PE) {
		pe.BarrierAll(p)
		if pe.ID() == 1 {
			pe.GlobalExit(p, 42)
		}
		pe.BarrierAll(p) // never reached by PE 1; others abandoned
	})
	var ge *GlobalExitError
	if !errors.As(err, &ge) {
		t.Fatalf("expected GlobalExitError, got %v", err)
	}
	if ge.PE != 1 || ge.Code != 42 {
		t.Fatalf("exit = %+v", ge)
	}
}

func TestCallocZeroesReusedMemory(t *testing.T) {
	w := newWorld(2, Options{})
	err := w.Run(func(p *sim.Proc, pe *PE) {
		a := pe.MustMalloc(p, 256)
		pe.LocalWrite(p, a, bytes.Repeat([]byte{0xFF}, 256))
		if err := pe.Free(p, a); err != nil {
			t.Error(err)
		}
		b, err := pe.Calloc(p, 256)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 256)
		pe.LocalRead(p, b, buf)
		for _, by := range buf {
			if by != 0 {
				t.Error("Calloc returned dirty memory")
				break
			}
		}
		pe.BarrierAll(p)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPEReallocPreservesAndStaysSymmetric(t *testing.T) {
	w := newWorld(3, Options{})
	offs := make([]SymAddr, 3)
	err := w.Run(func(p *sim.Proc, pe *PE) {
		a := pe.MustMalloc(p, 128)
		LocalPut(p, pe, a, []int64{11, 22, 33, 44})
		blocker := pe.MustMalloc(p, 8)
		_ = blocker
		b, err := pe.Realloc(p, a, 100_000) // forced move
		if err != nil {
			t.Error(err)
			return
		}
		var out [4]int64
		LocalGet(p, pe, b, out[:])
		if out[0] != 11 || out[3] != 44 {
			t.Errorf("pe %d realloc lost prefix: %v", pe.ID(), out)
		}
		offs[pe.ID()] = b
		pe.BarrierAll(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if offs[0] != offs[1] || offs[1] != offs[2] {
		t.Fatalf("realloc broke symmetry: %v", offs)
	}
}

func TestHeapStatsAndMode(t *testing.T) {
	w := newWorld(2, Options{Mode: driver.ModeCPU})
	err := w.Run(func(p *sim.Proc, pe *PE) {
		if pe.Mode() != driver.ModeCPU {
			t.Errorf("mode = %v", pe.Mode())
		}
		before := pe.HeapStats()
		if before.ResidentPages != 0 {
			t.Errorf("shmem_init left %d heap page(s) resident", before.ResidentPages)
		}
		a := pe.MustMalloc(p, 5000)
		after := pe.HeapStats()
		if after.Live != before.Live+1 || after.LiveBytes < before.LiveBytes+5000 || after.Chunks < 1 {
			t.Errorf("heap stats: %+v -> %+v", before, after)
		}
		// Allocating reserves; only writing makes a page resident.
		if after.ResidentPages != 0 {
			t.Errorf("Malloc made %d page(s) resident", after.ResidentPages)
		}
		pe.LocalWrite(p, a, make([]byte, 5000))
		if got := pe.HeapStats(); got.ResidentPages < 1 || got.ResidentBytes != int64(got.ResidentPages)*mem.PageSize {
			t.Errorf("after a 5000-byte write: %+v", got)
		}
		pe.BarrierAll(p)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLocalWriteBoundsChecked(t *testing.T) {
	w := newWorld(2, Options{})
	err := w.Run(func(p *sim.Proc, pe *PE) {
		a := pe.MustMalloc(p, 64)
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-bounds LocalWrite accepted")
				}
			}()
			pe.LocalWrite(p, a+32, make([]byte, 64))
		}()
		pe.BarrierAll(p)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWorldRunsAreDeterministic(t *testing.T) {
	// Two identical jobs must produce byte-identical timing — the whole
	// reproducibility claim of the repository.
	run := func() (sim.Time, Stats) {
		w := newWorldOpts(4, Options{Pipeline: 4, Routing: RouteShortest})
		err := w.Run(func(p *sim.Proc, pe *PE) {
			sym := pe.MustMalloc(p, 64<<10)
			ctr := pe.MustMalloc(p, 8)
			pe.BarrierAll(p)
			tgt := (pe.ID() + 2) % pe.NumPEs()
			pe.PutBytesNBI(p, tgt, sym, make([]byte, 64<<10))
			pe.FetchAddInt64(p, 0, ctr, int64(pe.ID()))
			pe.Quiet(p)
			pe.BarrierAll(p)
			buf := make([]byte, 16<<10)
			pe.GetBytes(p, tgt, sym, buf)
			pe.BarrierAll(p)
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.Cluster.Sim.Now(), w.PEs()[0].Stats()
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 {
		t.Fatalf("completion times diverge: %v vs %v", t1, t2)
	}
	if s1 != s2 {
		t.Fatalf("stats diverge: %+v vs %+v", s1, s2)
	}
}

// scaleBody is the shape bench.ScaleWorkloadTime runs: neighbour puts
// between two barriers. Pair it with Options{Mode: driver.ModeCPU}.
func scaleBody(rounds, putBytes int) func(p *sim.Proc, pe *PE) {
	return func(p *sim.Proc, pe *PE) {
		sym := pe.MustMalloc(p, putBytes)
		buf := make([]byte, putBytes)
		for i := range buf {
			buf[i] = byte(pe.ID() + i)
		}
		pe.BarrierAll(p)
		for r := 0; r < rounds; r++ {
			pe.PutBytes(p, (pe.ID()+1)%pe.NumPEs(), sym, buf)
		}
		pe.BarrierAll(p)
	}
}

func TestWorld256FootprintTracksBytesTouched(t *testing.T) {
	// A 256-PE world that moved 3 x 4 KiB per PE must hold memory in
	// proportion to that, not to what it reserved: 256 symmetric heap
	// chunks (4 MiB each) and 1024 NTB windows (1 MiB each) come to
	// 2 GiB when backed eagerly.
	heapAlloc := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heapAlloc()
	w := newWorld(256, Options{Mode: driver.ModeCPU})
	defer w.Cluster.ShutdownSim()
	if err := w.RunKeep(scaleBody(3, 4096)); err != nil {
		t.Fatal(err)
	}
	held := int64(heapAlloc()) - int64(before)
	if held > 128<<20 {
		t.Errorf("a 256-PE world holds %d MiB of Go heap after one scaling workload, want under 128", held>>20)
	}
	var resident int64
	for _, pe := range w.PEs() {
		resident += pe.HeapStats().ResidentBytes
	}
	if want := int64(256 * mem.PageSize); resident != want {
		t.Errorf("symmetric heaps hold %d resident bytes, want one page per PE (%d)", resident, want)
	}
	runtime.KeepAlive(w)
}

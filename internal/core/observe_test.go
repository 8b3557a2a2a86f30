package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"repro/internal/driver"
	"repro/internal/fabric"
	"repro/internal/mem"
	"repro/internal/sim"
)

// The observable-trace golden pins the model, not the schedule: what an
// application can see of a run — every completed operation with its
// start and duration, every host's final symmetric heap, and when the
// run ended. The kernel-level dispatch digests (bench's
// TestDispatchTraceGolden) also pin which process ran at which sequence
// number, so they move whenever the event structure changes; these must
// not move unless the modelled timing or data movement does.

var observableGolden = map[string]string{
	"scale/n=16":    "62f9a7fa069a4878577ee7051e8b1d55b922f995eeaf9f7a8920f28847a15984",
	"pipeline4/n=3": "ee00c473643d9c193b68867ec4450c53329c06608c8870bdfb3d0dfd7fcdbea8",
	"dma-mix/n=3":   "2894c672886b74105875c8ce308168aa44ac57aa19101af629d23e9e5840539f",
}

// observableWorlds are the worlds the golden covers: the 16-PE memcpy
// scaling world, a pipelined 3-host world, and a 3-host DMA world
// running puts, gets, atomics and barriers at one and two hops.
var observableWorlds = []struct {
	name string
	n    int
	opts Options
	body func(p *sim.Proc, pe *PE)
}{
	{"scale/n=16", 16, Options{Mode: driver.ModeCPU}, scaleBody(3, 4096)},
	{"pipeline4/n=3", 3, Options{Pipeline: 4}, resetScript(11, 3, 6)},
	{"dma-mix/n=3", 3, Options{}, dmaMixBody},
}

// dmaMixBody is resetScript's random put/get/AMO mix followed by a
// multi-chunk put two hops away and a get back from the neighbour.
func dmaMixBody(p *sim.Proc, pe *PE) {
	resetScript(29, 3, 6)(p, pe)
	const size = 192 << 10
	big := pe.MustMalloc(p, size)
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i*7 + pe.ID())
	}
	pe.BarrierAll(p)
	pe.PutBytes(p, (pe.ID()+2)%pe.NumPEs(), big, data)
	pe.BarrierAll(p)
	pe.GetBytes(p, (pe.ID()+1)%pe.NumPEs(), big, data)
	pe.LocalWrite(p, big, data[:4096])
	pe.BarrierAll(p)
}

// observableDigest runs body on a fresh n-host ring world and digests
// what the run made observable.
func observableDigest(t *testing.T, n int, opts Options, body func(p *sim.Proc, pe *PE)) string {
	t.Helper()
	w := newFabricWorld(fabric.KindNTBRing, n, opts)
	defer w.Cluster.ShutdownSim()
	h := sha256.New()
	var rec [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(rec[:], uint64(v))
		h.Write(rec[:])
	}
	w.SetOpTrace(func(ev OpEvent) {
		put(int64(ev.PE))
		h.Write([]byte(ev.Op))
		put(int64(ev.Target))
		put(int64(ev.Bytes))
		put(int64(ev.Start))
		put(int64(ev.Dur))
	})
	if err := w.RunKeep(body); err != nil {
		t.Fatal(err)
	}
	for _, pe := range w.PEs() {
		put(int64(pe.ID()))
		digestHeap(h, pe.heap, put)
	}
	put(int64(w.Cluster.Sim.Now()))
	return hex.EncodeToString(h.Sum(nil))
}

// digestHeap writes the offset and bytes of every page of h that reads
// as anything but zeros, so the digest depends on the heap's contents
// and never on which pages happen to hold storage.
func digestHeap(h hash.Hash, heap *mem.Heap, put func(int64)) {
	put(heap.Size())
	page := make([]byte, mem.PageSize)
	zero := make([]byte, mem.PageSize)
	for off := int64(0); off < heap.Size(); off += mem.PageSize {
		if heap.ZeroRange(off, mem.PageSize) {
			continue
		}
		heap.Read(off, page)
		if bytes.Equal(page, zero) {
			continue
		}
		put(off)
		h.Write(page)
	}
}

func TestObservableTraceGolden(t *testing.T) {
	for _, tc := range observableWorlds {
		t.Run(tc.name, func(t *testing.T) {
			got := observableDigest(t, tc.n, tc.opts, tc.body)
			if want := observableGolden[tc.name]; got != want {
				t.Errorf("observable digest %s, recorded %s", got, want)
			}
		})
	}
}

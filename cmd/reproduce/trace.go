package main

import (
	"cmp"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/trace"
)

// heatBuckets is the width of trace's DMA heat strips.
const heatBuckets = 60

// traceWorkload runs one OpenSHMEM workload on a ring with device and
// operation tracing on, and prints where its virtual time went: the
// per-operation table, the per-port device table, each adapter's DMA
// engine utilisation, the ring's topology and a heat strip of DMA bytes
// per adapter over time. -out also writes the device timeline as Chrome
// trace JSON (open with chrome://tracing or Perfetto).
func traceWorkload(args []string, stdout, stderr io.Writer) int {
	c := newCLI("trace", "One traced workload on the switchless ring: operation and device tables, DMA utilisation, topology and heat strips; -out writes Chrome trace JSON.", stdout, stderr, nil)
	workload := c.String("workload", "mix", "workload: put, get, barrier, mix (puts to the right neighbour, then one get) or allpairs (every PE puts to every other)")
	hosts := c.Int("hosts", 3, "ring size")
	size := c.Int("size", 64<<10, "transfer size in bytes")
	out := c.String("out", "", "also write the device timeline as Chrome trace JSON to this file")
	if code, ok := c.parse(args); !ok {
		return code
	}
	if err := cmp.Or(
		oneOf("workload", *workload, "put", "get", "barrier", "mix", "allpairs"),
		bench.CheckHostCount("hosts", *hosts, fabric.KindNTBRing),
		c.positive("size"),
		c.fitsHeap("size", *size),
	); err != nil {
		return c.fail(2, err)
	}

	s := sim.New()
	cl, err := fabric.NewRing(s, c.par, *hosts)
	if err != nil {
		return c.fail(1, err)
	}
	rec := trace.New()
	rec.Attach(cl)
	ops := trace.NewOpRecorder()
	w := core.NewWorld(cl, core.Options{})
	w.SetOpTrace(ops.OpHook())
	buf := make([]byte, *size) // every PE's payload; a put reads it before returning
	err = w.Run(func(p *sim.Proc, pe *core.PE) {
		me, n := pe.ID(), pe.NumPEs()
		sym := pe.MustMalloc(p, *size)
		pe.BarrierAll(p)
		switch *workload {
		case "put":
			if me == 0 {
				pe.PutBytes(p, n-1, sym, buf)
			}
		case "get":
			if me == 0 {
				pe.GetBytes(p, n-1, sym, buf)
			}
		case "barrier":
			for i := 0; i < 3; i++ {
				pe.BarrierAll(p)
			}
		case "mix":
			pe.PutBytes(p, (me+1)%n, sym, buf)
			pe.BarrierAll(p)
			if me == 0 {
				pe.GetBytes(p, n-1, sym, buf)
			}
		case "allpairs":
			for target := 0; target < n; target++ {
				if target != me {
					pe.PutBytes(p, target, sym, buf)
				}
			}
		}
		pe.BarrierAll(p)
	})
	if err != nil {
		return c.fail(1, err)
	}

	end := s.Now()
	fmt.Fprintf(stdout, "workload %q on %d hosts finished at t=%v; %d device events, %d operations\n\n",
		*workload, *hosts, end, rec.Len(), ops.Len())
	fmt.Fprintln(stdout, "application operations:")
	fmt.Fprint(stdout, ops.Table())
	fmt.Fprintln(stdout, "\ndevice activity:")
	fmt.Fprint(stdout, rec.Table())
	fmt.Fprintln(stdout)
	for _, h := range cl.Hosts {
		u := rec.Utilization(h.Right.Name(), end)
		fmt.Fprintf(stdout, "%-10s dma engine utilization %5.1f%%\n", h.Right.Name(), 100*u)
	}
	writeHeatStrips(stdout, cl, rec, end)

	if *out != "" {
		if err := writeChromeJSON(rec, *out); err != nil {
			return c.fail(1, err)
		}
		fmt.Fprintf(stdout, "\nChrome trace written to %s\n", *out)
	}
	return 0
}

// writeHeatStrips draws the ring with each link's DMA engine rate, then
// one row per rightward adapter of DMA bytes per time bucket, darker for
// more.
func writeHeatStrips(w io.Writer, cl *fabric.Cluster, rec *trace.Recorder, end sim.Time) {
	var ring strings.Builder
	rows := make(map[string]*[heatBuckets]int64, len(cl.Hosts))
	for _, h := range cl.Hosts {
		fmt.Fprintf(&ring, "[host%d]--%.1fGB/s--", h.ID, h.Right.EngineBW()/1e9)
		rows[h.Right.Name()] = new([heatBuckets]int64)
	}
	fmt.Fprintf(w, "\nswitchless ring: %s[host0]\n", ring.String())
	for _, e := range rec.Events() {
		if row := rows[e.Port]; row != nil && e.Cat == "dma" {
			row[int64(e.T)*heatBuckets/(int64(end)+1)] += int64(e.Bytes)
		}
	}
	fmt.Fprintf(w, "DMA activity (%d buckets of %s each; darker = more bytes)\n\n",
		heatBuckets, sim.Duration(int64(end)/heatBuckets))
	const shades = " .:-=+*#%@"
	for _, h := range cl.Hosts {
		row := rows[h.Right.Name()]
		peak := max(slices.Max(row[:]), 1)
		var strip [heatBuckets]byte
		for i, v := range row {
			strip[i] = shades[v*int64(len(shades)-1)/peak]
		}
		fmt.Fprintf(w, "%-10s |%s|\n", h.Right.Name(), strip[:])
	}
}

func writeChromeJSON(rec *trace.Recorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteChromeJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/model"
	"repro/internal/sim"
)

// tracedRun runs a small shmem workload with a recorder attached and
// returns the recorder and the final virtual time.
func tracedRun(t *testing.T) (*Recorder, sim.Time) {
	t.Helper()
	s := sim.New()
	c, err := fabric.NewRing(s, model.Default(), 3)
	if err != nil {
		t.Fatal(err)
	}
	rec := New()
	rec.Attach(c)
	w := core.NewWorld(c, core.Options{})
	err = w.Run(func(p *sim.Proc, pe *core.PE) {
		sym := pe.MustMalloc(p, 64<<10)
		pe.BarrierAll(p)
		if pe.ID() == 0 {
			pe.PutBytes(p, 1, sym, make([]byte, 64<<10))
			pe.PutBytes(p, 2, sym, make([]byte, 32<<10))
		}
		pe.BarrierAll(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec, s.Now()
}

func TestRecorderCapturesProtocolTraffic(t *testing.T) {
	rec, _ := tracedRun(t)
	if rec.Len() == 0 {
		t.Fatal("no events recorded")
	}
	var dmaBytes int64
	var rings, spads int
	for _, e := range rec.Events() {
		switch e.Cat {
		case "dma":
			dmaBytes += int64(e.Bytes)
			if e.Dur <= 0 {
				t.Fatal("dma event without duration")
			}
		case "doorbell":
			if e.Name == "ring" {
				rings++
			}
		case "spad":
			spads++
		}
	}
	// 96 KiB of puts plus the 2-hop relay of the 32 KiB one.
	if dmaBytes < 96<<10 {
		t.Fatalf("dma bytes = %d, want >= 96KiB", dmaBytes)
	}
	if rings == 0 || spads == 0 {
		t.Fatalf("rings=%d spads=%d; protocol register traffic missing", rings, spads)
	}
}

func TestSummaryAggregates(t *testing.T) {
	rec, _ := tracedRun(t)
	sum := rec.Summary()
	if len(sum) == 0 {
		t.Fatal("empty summary")
	}
	// h0.right carries both puts' first hops: 96 KiB min.
	var h0right *PortSummary
	for i := range sum {
		if sum[i].Port == "h0.right" {
			h0right = &sum[i]
		}
	}
	if h0right == nil {
		t.Fatalf("h0.right missing from summary: %+v", sum)
	}
	if h0right.DMABytes < 96<<10 || h0right.DMAXfers < 2 {
		t.Fatalf("h0.right summary off: %+v", *h0right)
	}
	if h0right.DoorbellRings == 0 || h0right.SpadAccesses == 0 {
		t.Fatalf("h0.right register traffic missing: %+v", *h0right)
	}
	tbl := rec.Table()
	if !strings.Contains(tbl, "h0.right") || !strings.Contains(tbl, "dma-bytes") {
		t.Fatalf("table rendering broken:\n%s", tbl)
	}
}

func TestUtilizationBounded(t *testing.T) {
	rec, end := tracedRun(t)
	u := rec.Utilization("h0.right", end)
	if u <= 0 || u >= 1 {
		t.Fatalf("utilization = %f, want within (0,1)", u)
	}
	if rec.Utilization("h0.right", 0) != 0 {
		t.Fatal("zero horizon should yield zero utilization")
	}
}

func TestChromeJSONWellFormed(t *testing.T) {
	rec, _ := tracedRun(t)
	var buf bytes.Buffer
	if err := rec.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(events) != rec.Len() {
		t.Fatalf("JSON has %d events, recorder %d", len(events), rec.Len())
	}
	sawComplete := false
	for _, e := range events {
		ph := e["ph"].(string)
		if ph == "X" {
			sawComplete = true
			if e["dur"].(float64) <= 0 {
				t.Fatal("complete event without duration")
			}
		}
		if e["ts"].(float64) < 0 {
			t.Fatal("negative timestamp")
		}
	}
	if !sawComplete {
		t.Fatal("no duration events in trace")
	}
}

func TestReset(t *testing.T) {
	rec, _ := tracedRun(t)
	rec.Reset()
	if rec.Len() != 0 {
		t.Fatal("reset did not clear events")
	}
}

func TestOpRecorder(t *testing.T) {
	s := sim.New()
	c, err := fabric.NewRing(s, model.Default(), 3)
	if err != nil {
		t.Fatal(err)
	}
	w := core.NewWorld(c, core.Options{})
	rec := NewOpRecorder()
	w.SetOpTrace(rec.OpHook())
	err = w.Run(func(p *sim.Proc, pe *core.PE) {
		sym := pe.MustMalloc(p, 8192)
		ctr := pe.MustMalloc(p, 8)
		pe.BarrierAll(p)
		if pe.ID() == 0 {
			pe.PutBytes(p, 1, sym, make([]byte, 8192))
			pe.GetBytes(p, 2, sym, make([]byte, 100))
			pe.FetchAddInt64(p, 1, ctr, 1)
		}
		pe.BarrierAll(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Fatal("no operations recorded")
	}
	byOp := map[string]OpSummary{}
	for _, sm := range rec.Summary() {
		byOp[sm.Op] = sm
	}
	if byOp["put"].Count != 1 || byOp["put"].Bytes != 8192 {
		t.Fatalf("put summary: %+v", byOp["put"])
	}
	if byOp["get"].Count != 1 || byOp["get"].Bytes != 100 {
		t.Fatalf("get summary: %+v", byOp["get"])
	}
	if byOp["amo"].Count != 1 {
		t.Fatalf("amo summary: %+v", byOp["amo"])
	}
	// init barrier + 2 explicit x 3 PEs = 9
	if byOp["barrier"].Count != 9 {
		t.Fatalf("barrier count = %d, want 9", byOp["barrier"].Count)
	}
	if byOp["get"].MeanUS <= byOp["put"].MeanUS {
		t.Fatal("get ops should be slower than put ops")
	}
	tbl := rec.Table()
	if !strings.Contains(tbl, "barrier") || !strings.Contains(tbl, "mean(us)") {
		t.Fatalf("op table malformed:\n%s", tbl)
	}
}

func TestTraceUnderPipelinedProtocol(t *testing.T) {
	// The device recorder and op recorder must keep working when the
	// pipelined link protocol replaces the scratchpad path.
	s := sim.New()
	c, err := fabric.NewRing(s, model.Default(), 3)
	if err != nil {
		t.Fatal(err)
	}
	rec := New()
	rec.Attach(c)
	w := core.NewWorld(c, core.Options{Pipeline: 4})
	ops := NewOpRecorder()
	w.SetOpTrace(ops.OpHook())
	err = w.Run(func(p *sim.Proc, pe *core.PE) {
		sym := pe.MustMalloc(p, 128<<10)
		pe.BarrierAll(p)
		if pe.ID() == 0 {
			pe.PutBytes(p, 1, sym, make([]byte, 128<<10))
		}
		pe.BarrierAll(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	var dmaBytes int64
	var spads int
	for _, e := range rec.Events() {
		if e.Cat == "dma" {
			dmaBytes += int64(e.Bytes)
		}
		if e.Cat == "spad" {
			spads++
		}
	}
	// Headers ride the window, so DMA bytes exceed the payload and the
	// data path produces no scratchpad traffic (only the boot exchange).
	if dmaBytes <= 128<<10 {
		t.Fatalf("dma bytes = %d, want > payload (headers in window)", dmaBytes)
	}
	if spads > 20 {
		t.Fatalf("pipelined run produced %d spad accesses; data path should not use them", spads)
	}
	if ops.Len() == 0 {
		t.Fatal("op recorder missed the workload")
	}
}

func TestRecorderCapturesSwitchTraffic(t *testing.T) {
	// The switch fabric's hosts meet through per-peer mesh ports, not
	// ring sides; the recorder must see them all the same.
	s := sim.New()
	c, err := fabric.New(fabric.Config{Sim: s, Par: model.Default(), Hosts: 4, Kind: fabric.KindPCIeSwitch})
	if err != nil {
		t.Fatal(err)
	}
	rec := New()
	rec.Attach(c)
	w := core.NewWorld(c, core.Options{})
	err = w.Run(func(p *sim.Proc, pe *core.PE) {
		sym := pe.MustMalloc(p, 16<<10)
		pe.BarrierAll(p)
		pe.PutBytes(p, (pe.ID()+1)%pe.NumPEs(), sym, make([]byte, 16<<10))
		pe.BarrierAll(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	var dmaBytes int64
	var rings int
	for _, e := range rec.Events() {
		switch {
		case e.Cat == "dma":
			dmaBytes += int64(e.Bytes)
		case e.Cat == "doorbell" && e.Name == "ring":
			rings++
		}
	}
	if dmaBytes < 4*16<<10 || rings == 0 {
		t.Fatalf("switch world recorded %d DMA bytes and %d doorbell rings; want >= %d and > 0", dmaBytes, rings, 4*16<<10)
	}
	// Every PE's put leaves through its own mesh port to its neighbour.
	senders := map[string]bool{}
	for _, ps := range rec.Summary() {
		if ps.DMAXfers > 0 {
			senders[ps.Port] = true
		}
	}
	if len(senders) < 4 {
		t.Fatalf("DMA recorded on %d port(s) %v, want one per host", len(senders), senders)
	}
}

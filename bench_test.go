package ntbshmem_test

// Benchmarks regenerating every figure of the paper's evaluation section,
// plus the ablations indexed in DESIGN.md. Each benchmark drives the
// deterministic simulator and reports the paper's metric as a custom
// unit (virtual microseconds or MB/s of virtual time); ns/op measures
// simulator cost only and is not a result.
//
// Full sweeps (all ten sizes, tables formatted like the paper's plots)
// come from `go run ./cmd/reproduce`; the benchmarks cover the sweep's
// endpoints and middle so `go test -bench .` stays fast.

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/model"
)

// benchSizes are the sweep points benchmarked per figure.
var benchSizes = []int{1 << 10, 32 << 10, 512 << 10}

func sizeName(n int) string { return bench.SizeLabel(n) }

// BenchmarkFig8_Independent reproduces the "Independent" series of
// Fig 8(a-c): raw DMA transfer rate of a single isolated NTB link.
func BenchmarkFig8_Independent(b *testing.B) {
	par := model.Default()
	for _, size := range benchSizes {
		b.Run(sizeName(size), func(b *testing.B) {
			var mbps float64
			for i := 0; i < b.N; i++ {
				mbps = bench.Fig8Independent(par, 0, size)
			}
			b.ReportMetric(mbps, "virt-MB/s")
		})
	}
}

// BenchmarkFig8_Ring reproduces the "Ring" series of Fig 8(a-c): all
// three links transferring simultaneously; the reported metric is one
// link's rate (they are symmetric).
func BenchmarkFig8_Ring(b *testing.B) {
	par := model.Default()
	for _, size := range benchSizes {
		b.Run(sizeName(size), func(b *testing.B) {
			var perLink []float64
			for i := 0; i < b.N; i++ {
				perLink = bench.Fig8Ring(par, 3, size)
			}
			b.ReportMetric(perLink[0], "virt-MB/s")
		})
	}
}

// BenchmarkFig8_Total reproduces Fig 8(d): total network transfer rate
// of the simultaneous ring.
func BenchmarkFig8_Total(b *testing.B) {
	par := model.Default()
	for _, size := range benchSizes {
		b.Run(sizeName(size), func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				total = 0
				for _, v := range bench.Fig8Ring(par, 3, size) {
					total += v
				}
			}
			b.ReportMetric(total, "virt-MB/s")
		})
	}
}

// fig9Cells is the paper's {DMA, memcpy} x {1, 2 hops} grid.
var fig9Cells = []struct {
	name string
	mode driver.Mode
	hops int
}{
	{"DMA_1hop", driver.ModeDMA, 1},
	{"DMA_2hops", driver.ModeDMA, 2},
	{"memcpy_1hop", driver.ModeCPU, 1},
	{"memcpy_2hops", driver.ModeCPU, 2},
}

func benchFig9(b *testing.B, op bench.Op, latency bool) {
	par := model.Default()
	for _, cell := range fig9Cells {
		for _, size := range benchSizes {
			b.Run(fmt.Sprintf("%s/%s", cell.name, sizeName(size)), func(b *testing.B) {
				var us float64
				for i := 0; i < b.N; i++ {
					us = bench.MeasureShmemOp(par, op, cell.mode, cell.hops, size, 3)
				}
				if latency {
					b.ReportMetric(us, "virt-us")
				} else {
					b.ReportMetric(bench.MBps(int64(size), int64(us*1e3)), "virt-MB/s")
				}
			})
		}
	}
}

// BenchmarkFig9_PutLatency reproduces Fig 9(a).
func BenchmarkFig9_PutLatency(b *testing.B) { benchFig9(b, bench.OpPut, true) }

// BenchmarkFig9_GetLatency reproduces Fig 9(b).
func BenchmarkFig9_GetLatency(b *testing.B) { benchFig9(b, bench.OpGet, true) }

// BenchmarkFig9_PutThroughput reproduces Fig 9(c).
func BenchmarkFig9_PutThroughput(b *testing.B) { benchFig9(b, bench.OpPut, false) }

// BenchmarkFig9_GetThroughput reproduces Fig 9(d).
func BenchmarkFig9_GetThroughput(b *testing.B) { benchFig9(b, bench.OpGet, false) }

// BenchmarkFig10_Barrier reproduces Fig 10: shmem_barrier_all latency
// following puts of varying size.
func BenchmarkFig10_Barrier(b *testing.B) {
	par := model.Default()
	for _, cell := range fig9Cells {
		for _, size := range benchSizes {
			b.Run(fmt.Sprintf("%s/%s", cell.name, sizeName(size)), func(b *testing.B) {
				var us float64
				for i := 0; i < b.N; i++ {
					us = bench.MeasureBarrierAfterPut(par, cell.mode, cell.hops, size, 3)
				}
				b.ReportMetric(us, "virt-us")
			})
		}
	}
}

// BenchmarkAblationBarrierAlgo is ablation A1: the barrier-algorithm
// comparison over ring sizes.
func BenchmarkAblationBarrierAlgo(b *testing.B) {
	par := model.Default()
	for _, algo := range []core.BarrierAlgo{core.BarrierRing, core.BarrierCentral, core.BarrierDissemination} {
		for _, n := range []int{3, 8} {
			b.Run(fmt.Sprintf("%s/n=%d", algo, n), func(b *testing.B) {
				var us float64
				for i := 0; i < b.N; i++ {
					us = bench.MeasureBarrierLatency(par, algo, n, 3)
				}
				b.ReportMetric(us, "virt-us")
			})
		}
	}
}

// BenchmarkAblationChunkSize is ablation A2: Get throughput versus the
// stop-and-wait chunk size.
func BenchmarkAblationChunkSize(b *testing.B) {
	for _, chunk := range []int{4 << 10, 16 << 10, 64 << 10} {
		b.Run(sizeName(chunk), func(b *testing.B) {
			par := model.Default()
			par.GetChunk = chunk
			var us float64
			for i := 0; i < b.N; i++ {
				us = bench.MeasureShmemOp(par, bench.OpGet, driver.ModeDMA, 1, 512<<10, 3)
			}
			b.ReportMetric(bench.MBps(512<<10, int64(us*1e3)), "virt-MB/s")
		})
	}
}

// BenchmarkAblationRouting is ablation A4: get latency to the farthest
// PE of a 7-host ring under the paper's rightward routing vs
// shortest-arc routing.
func BenchmarkAblationRouting(b *testing.B) {
	par := model.Default()
	for _, routing := range []core.Routing{core.RouteRightward, core.RouteShortest} {
		b.Run(routing.String(), func(b *testing.B) {
			var us float64
			for i := 0; i < b.N; i++ {
				us = bench.MeasureGetRouted(par, routing, 7, 6, 64<<10)
			}
			b.ReportMetric(us, "virt-us")
		})
	}
}

// BenchmarkAblationBroadcast is ablation A5: linear fanout vs
// ring-pipelined broadcast.
func BenchmarkAblationBroadcast(b *testing.B) {
	par := model.Default()
	for _, size := range []int{64 << 10, 1 << 20, 8 << 20} {
		b.Run(sizeName(size), func(b *testing.B) {
			var lin, pipe float64
			for i := 0; i < b.N; i++ {
				lin, pipe = bench.MeasureBroadcast(par, 6, size)
			}
			b.ReportMetric(lin, "virt-linear-us")
			b.ReportMetric(pipe, "virt-pipeline-us")
		})
	}
}

// BenchmarkAblationPipeline is ablation A6: put throughput vs
// link-protocol pipeline depth (1 = the paper's stop-and-wait).
func BenchmarkAblationPipeline(b *testing.B) {
	par := model.Default()
	for _, depth := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			var putUS float64
			for i := 0; i < b.N; i++ {
				putUS, _ = bench.MeasurePipelined(par, depth, 512<<10, 3)
			}
			b.ReportMetric(bench.MBps(512<<10, int64(putUS*1e3)), "virt-MB/s")
		})
	}
}

// BenchmarkExtensionGenerations is extension E1: shmem put throughput
// across PCIe platform profiles.
func BenchmarkExtensionGenerations(b *testing.B) {
	for _, name := range model.Names() {
		b.Run(name, func(b *testing.B) {
			par, err := model.Profile(name)
			if err != nil {
				b.Fatal(err)
			}
			var us float64
			for i := 0; i < b.N; i++ {
				us = bench.MeasureShmemOp(par, bench.OpPut, driver.ModeDMA, 1, 512<<10, 3)
			}
			b.ReportMetric(bench.MBps(512<<10, int64(us*1e3)), "virt-MB/s")
		})
	}
}

// BenchmarkExtensionTwoSided is extension E2: one-sided put vs
// two-sided send/recv latency.
func BenchmarkExtensionTwoSided(b *testing.B) {
	par := model.Default()
	for _, size := range benchSizes {
		b.Run(sizeName(size), func(b *testing.B) {
			var put, send float64
			for i := 0; i < b.N; i++ {
				put, send = bench.MeasureTwoSided(par, size, 3)
			}
			b.ReportMetric(put, "virt-put-us")
			b.ReportMetric(send, "virt-send-us")
		})
	}
}

// BenchmarkExtensionAppKernels is extension E3: end-to-end application
// kernels under the default configuration.
func BenchmarkExtensionAppKernels(b *testing.B) {
	par := model.Default()
	kernels := []struct {
		name string
		run  func() float64
	}{
		{"heat1d", func() float64 { return bench.AppHeat1D(par, core.Options{}, 4, 1024, 20) }},
		{"matmul", func() float64 { return bench.AppMatmul(par, core.Options{}, 4, 64) }},
		{"intsort", func() float64 { return bench.AppIntSort(par, core.Options{}, 4, 20_000) }},
	}
	for _, k := range kernels {
		b.Run(k.name, func(b *testing.B) {
			var us float64
			for i := 0; i < b.N; i++ {
				us = k.run()
			}
			b.ReportMetric(us, "virt-us")
		})
	}
}

// BenchmarkAblationRingSize is ablation A3: put/get latency to the
// farthest PE as the ring grows.
func BenchmarkAblationRingSize(b *testing.B) {
	par := model.Default()
	for _, n := range []int{3, 5, 8} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var put, get float64
			for i := 0; i < b.N; i++ {
				put, get = bench.MeasureFarthest(par, n, 64<<10)
			}
			b.ReportMetric(put, "virt-put-us")
			b.ReportMetric(get, "virt-get-us")
		})
	}
}

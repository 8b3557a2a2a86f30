package pcie

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// The solver benchmarks exercise the transfer hot path the runtime pays
// for every protocol chunk: start a flow over a three-server route
// (source root complex, wire, destination root complex), run it to
// completion, repeat. FlowSolve{1,3,16} fix the concurrency level;
// FlowNetChurn staggers sizes so starts and finishes interleave at a
// high rate, the worst case for the re-solve machinery.

// benchServers builds the shared three-server topology used by every
// solver benchmark.
func benchServers() (rcA, wire, rcB *Server) {
	return NewServer("rcA", 5.5e9), NewServer("wire", 7.2e9), NewServer("rcB", 5.5e9)
}

func benchConcurrentFlows(b *testing.B, procs int, size func(i int) int64) {
	b.ReportAllocs()
	s := sim.New()
	n := NewNetwork(s)
	rcA, wire, rcB := benchServers()
	route := n.NewRoute(rcA, wire, rcB)
	per := b.N/procs + 1
	for i := 0; i < procs; i++ {
		i := i
		s.Go(fmt.Sprintf("flow%d", i), func(p *sim.Proc) {
			for j := 0; j < per; j++ {
				n.TransferRoute(p, size(i), 2.9e9, route)
			}
		})
	}
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	s.Shutdown()
}

func BenchmarkFlowSolve1Flows(b *testing.B) {
	benchConcurrentFlows(b, 1, func(int) int64 { return 32 << 10 })
}

func BenchmarkFlowSolve3Flows(b *testing.B) {
	benchConcurrentFlows(b, 3, func(int) int64 { return 32 << 10 })
}

func BenchmarkFlowSolve16Flows(b *testing.B) {
	benchConcurrentFlows(b, 16, func(int) int64 { return 32 << 10 })
}

// BenchmarkFlowNetChurn is the start/finish-heavy case: sixteen
// concurrent senders with co-prime sizes, so nearly every completion
// lands at a distinct instant and forces a re-solve of the remaining
// flow set.
func BenchmarkFlowNetChurn(b *testing.B) {
	benchConcurrentFlows(b, 16, func(i int) int64 {
		return 4<<10 + int64(i*977)%(60<<10)
	})
}

// TestBenchCeilings: once its sixteen senders are spawned, the
// start/finish-heavy solver path allocates nothing per transfer. About
// 90 allocations per run are fixed start-up cost (≈ 0.00004 allocs/op
// at 2 M ops, ≈ 0.001 under -race); one allocation per coalesced solve
// reads 0.996. Allocs/op is computed as a float because
// BenchmarkResult.AllocsPerOp truncates, and would read that as 0.
func TestBenchCeilings(t *testing.T) {
	if testing.Short() {
		t.Skip("a one-second benchmark run in -short mode")
	}
	r := testing.Benchmark(BenchmarkFlowNetChurn)
	if got := float64(r.MemAllocs) / float64(r.N); got > 0.01 {
		t.Errorf("BenchmarkFlowNetChurn: %.4f allocs/op, ceiling 0.01", got)
	}
}

package sim

import (
	"testing"
)

// BenchmarkSimEventThroughput drives the kernel's hot path — one spawn,
// then a lone process whose every timer and same-instant wake is its own
// and is consumed inline by park — and reports wall-clock events/sec
// and allocs/op. All 19 allocs/op belong to New and the spawn (mostly
// iter.Pull's coroutine and closures); the thousand events add none,
// which TestStandingProcessEventsAllocateNothing pins.
// BenchmarkSimPingPong measures the cross-process switch. This is the
// host-side speed of the simulator itself, tracked alongside the
// virtual-time metrics: the ROADMAP's "as fast as the hardware allows"
// applies to how quickly a world simulates, not only to the modelled
// numbers.
func BenchmarkSimEventThroughput(b *testing.B) {
	const eventsPerIter = 1000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		s.Go("worker", func(p *Proc) {
			for e := 0; e < eventsPerIter/2; e++ {
				p.Sleep(Microsecond) // timer wake: one event
				p.Yield()            // same-timestamp wake: one event
			}
		})
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
		s.Shutdown()
	}
	b.ReportMetric(float64(b.N)*eventsPerIter/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkSimPingPong measures the two-process handshake pattern every
// kernel primitive reduces to: a producer pushing into a Queue and a
// consumer popping, alternating at the same timestamp.
func BenchmarkSimPingPong(b *testing.B) {
	const rounds = 500
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		q := NewQueue[int]("ping")
		r := NewQueue[int]("pong")
		s.Go("producer", func(p *Proc) {
			for n := 0; n < rounds; n++ {
				q.Push(n)
				r.Pop(p)
			}
		})
		s.Go("consumer", func(p *Proc) {
			for n := 0; n < rounds; n++ {
				q.Pop(p)
				r.Push(n)
			}
		})
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
		s.Shutdown()
	}
	b.ReportMetric(float64(b.N)*rounds/b.Elapsed().Seconds(), "rounds/s")
}

// BenchmarkLadderQueueChurn measures the ladder queue's steady state in
// isolation: one pop plus one re-push per op against a standing
// population large enough to keep events flowing through rungs and the
// top tier. After warm-up the churn must be allocation-free — bucket
// arrays, rung slots, and the bottom heap's backing are all reused.
func BenchmarkLadderQueueChurn(b *testing.B) {
	const standing = 4096
	const stride = Duration(257) // odd stride scatters events across buckets
	var q ladderQueue
	var seq uint64
	for i := 0; i < standing; i++ {
		q.push(event{t: Time(i) * 997, seq: seq})
		seq++
	}
	// Warm one full churn cycle so every tier has spawned and settled
	// its backing storage before the measured (and gated) window.
	for i := 0; i < standing*4; i++ {
		e := q.pop()
		q.push(event{t: e.t.Add(stride * standing), seq: seq})
		seq++
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := q.pop()
		q.push(event{t: e.t.Add(stride * standing), seq: seq})
		seq++
	}
}

// TestBenchCeilings: after warm-up the ladder queue's pop-and-re-push
// churn reuses every bucket array, rung slot and heap backing. It
// measures 0 allocs/op; the ceiling leaves room for a stray runtime
// allocation, never one per op. Allocs/op is computed as a float
// because BenchmarkResult.AllocsPerOp truncates: it reads 0 for
// anything under one allocation per op.
func TestBenchCeilings(t *testing.T) {
	if testing.Short() {
		t.Skip("a one-second benchmark run in -short mode")
	}
	r := testing.Benchmark(BenchmarkLadderQueueChurn)
	if got := float64(r.MemAllocs) / float64(r.N); got > 0.01 {
		t.Errorf("BenchmarkLadderQueueChurn: %.4f allocs/op, ceiling 0.01", got)
	}
}

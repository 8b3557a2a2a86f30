package sim

import (
	"math/rand"
	"testing"
)

// The differential property the ladder queue must satisfy: for any
// stream of pushes and pops that respects the simulator's discipline
// (pushes never in the past of the last pop, seq strictly increasing),
// the ladder dispatches the exact (t, seq) sequence the reference heap
// does. These tests drive both queues with identical streams and fail
// on the first divergence.

// queueStream drives lq and hq with a seeded random mix of pushes and
// pops, comparing every popped (t, seq) pair, then drains both.
func queueStream(t *testing.T, seed int64, ops int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var lq ladderQueue
	var hq eventHeap
	var seq uint64
	var now Time
	push := func() {
		// Mix of horizons: ties at now, near-future, mid, and far — the
		// far pushes land in the top tier, the mid ones in rungs.
		var at Time
		switch rng.Intn(4) {
		case 0:
			at = now
		case 1:
			at = now.Add(Duration(rng.Int63n(64)))
		case 2:
			at = now.Add(Duration(rng.Int63n(100_000)))
		default:
			at = now.Add(Duration(rng.Int63n(2_000_000_000)))
		}
		e := event{t: at, seq: seq}
		seq++
		lq.push(e)
		hq.push(e)
	}
	popBoth := func() {
		le, he := lq.pop(), hq.pop()
		if le.t != he.t || le.seq != he.seq {
			t.Fatalf("seed %d: divergence at pop: ladder (t=%d seq=%d) vs heap (t=%d seq=%d)",
				seed, le.t, le.seq, he.t, he.seq)
		}
		if le.t < now {
			t.Fatalf("seed %d: time went backwards: %d after %d", seed, le.t, now)
		}
		now = le.t
	}
	for op := 0; op < ops; op++ {
		if lq.Len() != hq.Len() {
			t.Fatalf("seed %d: length divergence: ladder %d vs heap %d", seed, lq.Len(), hq.Len())
		}
		if rng.Intn(3) != 0 || lq.Len() == 0 {
			push()
		} else {
			popBoth()
		}
	}
	for lq.Len() > 0 {
		popBoth()
	}
	if hq.Len() != 0 {
		t.Fatalf("seed %d: heap has %d events after ladder drained", seed, hq.Len())
	}
}

func TestLadderMatchesHeapRandomStreams(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 31, 99} {
		queueStream(t, seed, 20_000)
	}
}

func TestLadderSameTimestampFIFO(t *testing.T) {
	// Thousands of events at one timestamp force the spawn guard (a
	// width-1 bucket can never split further); the pops must come back
	// in exact submission order.
	var lq ladderQueue
	const n = 10_000
	const at = Time(12345)
	for i := uint64(0); i < n; i++ {
		lq.push(event{t: at, seq: i})
	}
	// A far event above them, to keep the tie burst inside the ladder
	// structure rather than the small-queue fast path.
	lq.push(event{t: at + 5_000_000, seq: n})
	for i := uint64(0); i <= n; i++ {
		e := lq.pop()
		if e.seq != i {
			t.Fatalf("pop %d returned seq %d: same-timestamp FIFO broken", i, e.seq)
		}
	}
}

func TestLadderResetThenRerun(t *testing.T) {
	// A reset ladder must replay an identical stream identically — the
	// invariant the bench world pool leans on.
	run := func(lq *ladderQueue) []event {
		rng := rand.New(rand.NewSource(7))
		var seq uint64
		var now Time
		var popped []event
		for op := 0; op < 5_000; op++ {
			if rng.Intn(3) != 0 || lq.Len() == 0 {
				lq.push(event{t: now.Add(Duration(rng.Int63n(1_000_000))), seq: seq})
				seq++
			} else {
				e := lq.pop()
				now = e.t
				popped = append(popped, e)
			}
		}
		for lq.Len() > 0 {
			popped = append(popped, lq.pop())
		}
		return popped
	}
	var lq ladderQueue
	first := run(&lq)
	lq.reset()
	if lq.Len() != 0 {
		t.Fatalf("reset left %d events", lq.Len())
	}
	second := run(&lq)
	if len(first) != len(second) {
		t.Fatalf("rerun popped %d events, first run %d", len(second), len(first))
	}
	for i := range first {
		if first[i].t != second[i].t || first[i].seq != second[i].seq {
			t.Fatalf("pop %d: first (t=%d seq=%d) vs rerun (t=%d seq=%d)",
				i, first[i].t, first[i].seq, second[i].t, second[i].seq)
		}
	}
}

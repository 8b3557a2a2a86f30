package sim

// This file implements the kernel's event queue: a ladder queue (Tang,
// Goh & Thng, "Ladder queue: An O(1) priority queue structure for
// large-scale discrete event simulation", ACM TOMACS 2005), adapted to
// this kernel's guarantees. The binary heap in heap.go is its sorted
// front and, on its own, the reference the tests compare it against
// (heap_test.go).
//
// Structure. Pending events live in one of three tiers:
//
//   - bottom: a small (t, seq) binary heap holding the earliest events.
//     Pops always come from here, so dispatch order is exactly the
//     heap's — the ladder changes *when* events are sorted, never *how*.
//   - rungs: bucket arrays subdividing the near future. rungs[0] is the
//     coarsest (latest) span; each deeper rung refines one bucket of its
//     parent. Only the last (finest, earliest) rung is drained.
//   - top: an unsorted overflow list for the far future, bounded below
//     by topStart.
//
// The virtual time axis is partitioned between the tiers:
//
//	[0, bottomLimit)             -> bottom
//	[bottomLimit, rung spans...) -> the rungs, finest first
//	[topStart, infinity)         -> top
//
// Enqueue walks that partition (O(#rungs), and #rungs is bounded by a
// small constant); dequeue pops the bottom heap, refilling it from the
// front bucket when it runs dry. Each event is touched a constant number
// of times between enqueue and dispatch, which is the ladder's O(1)
// amortised bound.
//
// Ordering invariant. The kernel never schedules into the past
// (scheduleEvent panics on t < now) and breaks timestamp ties by a
// monotone sequence number. Bucket boundaries are pure functions of t, so
// two events with equal t always land in the same bucket, move to the
// bottom heap in the same transfer, and are ordered there by seq —
// dispatch order is therefore bit-identical to the reference heap's
// (t, seq) order. The differential tests in ladder_test.go and
// heap_test.go assert exactly this.
//
// Small queues — and every queue starts small — take a fast path: while
// the rungs and top are empty and the bottom holds fewer than
// ladderBottomMax events, enqueues go straight into the bottom heap, so
// a 3-PE world pays nothing for the machinery a 1024-PE world needs.

// eventQueue is the scheduler's pending-event store: dispatch in exact
// (t, seq) order, and reset for reuse (retaining backing storage,
// releasing event references). Production simulators only ever hold a
// ladderQueue behind it; the interface is the seam through which the
// in-package differential tests run whole simulators on the reference
// heap.
type eventQueue interface {
	Len() int
	push(e event)
	pop() event
	peek() *event
	reset()
}

// Ladder geometry. bottomMax bounds the sorted front (and gates the
// small-queue fast path); spawnMax is the bucket size above which a
// bucket is refined into a child rung instead of being heap-sorted;
// maxRungs bounds refinement depth so enqueue's partition walk stays
// O(1); the bucket-count clamps size each rung to its population.
const (
	ladderBottomMax  = 48
	ladderSpawnMax   = 48
	ladderMaxRungs   = 8
	ladderMinBuckets = 16
	ladderMaxBuckets = 1024
)

// rung is one refinement level: buckets of width virtual nanoseconds
// starting at start. Buckets before cur have been drained or refined.
type rung struct {
	start   Time
	width   Duration
	cur     int
	buckets [][]event
}

// activeStart is the lower time bound of the rung's undrained region.
func (r *rung) activeStart() Time { return r.start.Add(Duration(r.cur) * r.width) }

// insert files e into its bucket. The caller guarantees e.t lies inside
// the rung's active region.
func (r *rung) insert(e event) {
	idx := int(Duration(e.t-r.start) / r.width)
	if idx >= len(r.buckets) {
		idx = len(r.buckets) - 1 // unreachable by construction; stay safe
	}
	r.buckets[idx] = append(r.buckets[idx], e)
}

// ladderQueue implements eventQueue; see the file comment for the
// design. The zero value is an empty queue.
type ladderQueue struct {
	size        int
	bottom      eventHeap
	bottomLimit Time // events with t < bottomLimit belong in bottom
	rungs       []rung
	top         []event
	topStart    Time // events with t >= topStart belong in top
	topMin      Time
	topMax      Time
}

func (q *ladderQueue) Len() int { return q.size }

func (q *ladderQueue) push(e event) {
	q.size++
	if e.t < q.bottomLimit {
		q.bottom.push(e)
		return
	}
	if len(q.rungs) == 0 && len(q.top) == 0 && q.bottom.Len() < ladderBottomMax {
		// Small-queue fast path: keep the sorted front directly, and
		// ratchet the partition boundary past the new event so later
		// earlier-time enqueues still find the bottom.
		q.bottom.push(e)
		if lim := e.t + 1; lim > q.bottomLimit {
			q.bottomLimit = lim
		}
		if q.bottomLimit > q.topStart {
			q.topStart = q.bottomLimit
		}
		return
	}
	if e.t >= q.topStart {
		if len(q.top) == 0 || e.t < q.topMin {
			q.topMin = e.t
		}
		if len(q.top) == 0 || e.t > q.topMax {
			q.topMax = e.t
		}
		q.top = append(q.top, e)
		return
	}
	// The rungs' active regions tile [bottomLimit, topStart) in
	// descending time order: rungs[0] is the latest span, the last rung
	// the earliest.
	for i := range q.rungs {
		r := &q.rungs[i]
		if e.t >= r.activeStart() {
			r.insert(e)
			return
		}
	}
	// Below every rung's active region (possible in the sliver between
	// bottomLimit updates and rung starts): the bottom heap absorbs it —
	// a heap needs no range discipline, only that pops drain it first.
	q.bottom.push(e)
}

func (q *ladderQueue) pop() event {
	if q.bottom.Len() == 0 {
		q.advance()
	}
	q.size--
	return q.bottom.pop()
}

func (q *ladderQueue) peek() *event {
	if q.size == 0 {
		return nil
	}
	if q.bottom.Len() == 0 {
		q.advance()
	}
	return q.bottom.peek()
}

// advance refills the empty bottom heap from the earliest non-empty
// bucket, refining overfull buckets into child rungs on the way down.
// The queue must not be empty.
func (q *ladderQueue) advance() {
	for {
		if n := len(q.rungs); n > 0 {
			r := &q.rungs[n-1]
			for r.cur < len(r.buckets) && len(r.buckets[r.cur]) == 0 {
				r.cur++
			}
			if r.cur == len(r.buckets) {
				// Rung drained; its bucket arrays stay behind in the
				// slice's capacity for the next spawn to reuse.
				q.rungs = q.rungs[:n-1]
				continue
			}
			b := r.buckets[r.cur]
			bucketStart := r.start.Add(Duration(r.cur) * r.width)
			if len(b) > ladderSpawnMax && r.width > 1 && len(q.rungs) < ladderMaxRungs {
				q.spawnRung(bucketStart, r.width, b)
				q.clearBucket(r, r.cur)
				continue
			}
			for i := range b {
				q.bottom.push(b[i])
			}
			q.bottomLimit = bucketStart.Add(r.width)
			q.clearBucket(r, r.cur)
			return
		}
		if len(q.top) == 0 {
			panic("sim: ladder advance on an empty queue")
		}
		if len(q.top) <= ladderBottomMax {
			for i := range q.top {
				q.bottom.push(q.top[i])
				q.top[i] = event{}
			}
			q.top = q.top[:0]
			q.bottomLimit = q.topMax + 1
			q.topStart = q.topMax + 1
			return
		}
		q.spawnRung(q.topMin, Duration(q.topMax-q.topMin)+1, q.top)
		for i := range q.top {
			q.top[i] = event{}
		}
		q.top = q.top[:0]
	}
}

// clearBucket releases the transferred bucket's event references and
// advances the rung cursor past it.
func (q *ladderQueue) clearBucket(r *rung, idx int) {
	b := r.buckets[idx]
	for i := range b {
		b[i] = event{}
	}
	r.buckets[idx] = b[:0]
	r.cur = idx + 1
}

// spawnRung pushes a new finest rung covering [start, start+span) and
// distributes events into its buckets. Bucket count tracks the event
// population; bucket width subdivides span exactly. Popped rungs leave
// their bucket arrays in the rungs slice's spare capacity, so steady-
// state spawning reuses them instead of allocating.
func (q *ladderQueue) spawnRung(start Time, span Duration, events []event) {
	nb := len(events) / 4
	if nb < ladderMinBuckets {
		nb = ladderMinBuckets
	}
	if nb > ladderMaxBuckets {
		nb = ladderMaxBuckets
	}
	if Duration(nb) > span {
		nb = int(span) // width floors at one virtual nanosecond
	}
	width := (span-1)/Duration(nb) + 1
	if len(q.rungs) < cap(q.rungs) {
		// Reuse the retained rung slot — and its bucket arrays — beyond
		// the current length.
		q.rungs = q.rungs[:len(q.rungs)+1]
	} else {
		q.rungs = append(q.rungs, rung{})
	}
	r := &q.rungs[len(q.rungs)-1]
	r.start, r.width, r.cur = start, width, 0
	if cap(r.buckets) >= nb {
		r.buckets = r.buckets[:nb]
	} else {
		r.buckets = make([][]event, nb)
	}
	// New rung becomes the finest: its span refines what was previously
	// the front, so the partition boundary moves down to its start.
	q.bottomLimit = start
	for i := range events {
		r.insert(events[i])
	}
}

// reset empties the queue for reuse, releasing event references
// while retaining every backing array (bottom items, top list, rung
// buckets) so a recycled world's first run allocates nothing here.
func (q *ladderQueue) reset() {
	q.size = 0
	q.bottom.reset()
	q.bottomLimit = 0
	for i := range q.top {
		q.top[i] = event{}
	}
	q.top = q.top[:0]
	q.topStart, q.topMin, q.topMax = 0, 0, 0
	for i := range q.rungs {
		r := &q.rungs[i]
		for j := range r.buckets {
			b := r.buckets[j]
			for k := range b {
				b[k] = event{}
			}
			r.buckets[j] = b[:0]
		}
		r.start, r.width, r.cur = 0, 0, 0
	}
	q.rungs = q.rungs[:0]
}

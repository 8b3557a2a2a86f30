package sim

// event is a scheduled callback. Events with equal times fire in the order
// they were scheduled (seq breaks ties), which keeps runs deterministic.
//
// The overwhelmingly common event — wake a parked process — carries the
// *Proc directly instead of a freshly allocated closure; fn is only used
// for scheduler-context callbacks (After). Components that schedule many
// cancellable or parameterised timers (the flow network's completion
// events, doorbell interrupt delivery) implement Ticker and carry an
// opaque argument instead, so their timers allocate nothing either.
type event struct {
	t      Time
	seq    uint64
	proc   *Proc  // non-nil: dispatch this process
	fn     func() // non-nil: run this callback in scheduler context
	ticker Ticker // non-nil: call ticker.Tick(targ) in scheduler context
	targ   uint64
}

// eventHeap is a binary min-heap of events ordered by (t, seq): the
// ladder queue's sorted front. It is hand-rolled rather than built on
// container/heap to avoid the interface boxing on what is the hottest
// structure in the kernel.
type eventHeap struct {
	items []event
}

func (h *eventHeap) Len() int { return len(h.items) }

func (h *eventHeap) less(i, j int) bool {
	a, b := &h.items[i], &h.items[j]
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(e event) {
	h.items = append(h.items, e)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items[last] = event{} // release fn for GC
	h.items = h.items[:last]
	h.siftDown(0)
	return top
}

func (h *eventHeap) peek() *event {
	if len(h.items) == 0 {
		return nil
	}
	return &h.items[0]
}

// reset empties the heap for reuse, releasing event references while
// keeping the backing array warm.
func (h *eventHeap) reset() {
	for i := range h.items {
		h.items[i] = event{}
	}
	h.items = h.items[:0]
}

func (h *eventHeap) siftDown(i int) {
	n := len(h.items)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && h.less(right, left) {
			smallest = right
		}
		if !h.less(smallest, i) {
			return
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}

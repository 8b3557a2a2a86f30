package sim

// This file provides virtual-time synchronisation primitives. They follow
// the same discipline as the kernel: no real locking is needed because at
// most one process executes at a time; blocking is expressed by parking the
// calling process and waking it from a scheduled event.

// Cond is a condition variable on virtual time. The usual pattern applies:
//
//	for !predicate() {
//		cond.Wait(p)
//	}
//
// Broadcast may be called from process or scheduler context.
type Cond struct {
	name      string
	parkLabel string // "cond " + name, built once instead of per Wait
	waiters   []*Proc
}

// NewCond returns a condition variable labelled name for deadlock reports.
func NewCond(name string) *Cond { return &Cond{name: name, parkLabel: "cond " + name} }

// Wait parks the calling process until a Broadcast wakes it.
func (c *Cond) Wait(p *Proc) {
	if c.parkLabel == "" { // zero-value Cond (e.g. inside Completion)
		c.parkLabel = "cond " + c.name
	}
	c.waiters = append(c.waiters, p)
	p.park(c.parkLabel)
}

// Broadcast wakes every currently waiting process.
func (c *Cond) Broadcast() {
	for _, w := range c.waiters {
		w.wake()
	}
	c.waiters = c.waiters[:0]
}

// Waiters reports how many processes are parked on the condition.
func (c *Cond) Waiters() int { return len(c.waiters) }

// Completion is a one-shot latch: processes that Wait before Complete is
// called park until it fires; afterwards Wait returns immediately.
// The zero value is an incomplete latch, usable once given a name via
// NewCompletion (the name only affects diagnostics).
type Completion struct {
	name string // diagnostic identity
	done bool
	cond Cond
}

// NewCompletion returns an unfired latch labelled name.
func NewCompletion(name string) *Completion {
	return &Completion{name: name, cond: Cond{name: name}}
}

// Done reports whether the latch has fired.
func (c *Completion) Done() bool { return c.done }

// Complete fires the latch and wakes all waiters. Firing twice is a no-op.
func (c *Completion) Complete() {
	if c.done {
		return
	}
	c.done = true
	c.cond.Broadcast()
}

// Wait parks until the latch fires.
func (c *Completion) Wait(p *Proc) {
	for !c.done {
		c.cond.Wait(p)
	}
}

// Reset rearms a fired latch so the record can be pooled and reused.
// The caller must guarantee no process still holds the latch from the
// previous cycle: resetting with parked waiters, or before Complete has
// fired, is a lifecycle bug and panics.
func (c *Completion) Reset() {
	if !c.done {
		panic("sim: Reset of an unfired completion: " + c.name)
	}
	if len(c.cond.waiters) != 0 {
		panic("sim: Reset of a completion with parked waiters: " + c.name)
	}
	c.done = false
}

// queueWaiter is a parked consumer with a handoff slot.
type queueWaiter[T any] struct {
	p     *Proc
	item  T
	ready bool
}

// Queue is an unbounded FIFO channel in virtual time. Push never blocks;
// Pop blocks until an item is available. Items are handed directly to the
// longest-waiting consumer, so wake order is FIFO and no consumer can
// starve.
type Queue[T any] struct {
	name      string
	parkLabel string
	items     []T
	waiters   []*queueWaiter[T]
	// wpool recycles waiter records: a waiter's lifetime is confined to
	// one Pop call, so the record is returned here as Pop unblocks and
	// the steady-state park path allocates nothing.
	wpool []*queueWaiter[T]
}

// NewQueue returns an empty queue labelled name.
func NewQueue[T any](name string) *Queue[T] {
	return &Queue[T]{name: name, parkLabel: "queue " + name}
}

// Len reports the number of buffered (not yet handed off) items.
func (q *Queue[T]) Len() int { return len(q.items) }

// Push appends an item, waking the longest-waiting consumer if present.
// It is safe to call from scheduler context.
func (q *Queue[T]) Push(item T) {
	if len(q.waiters) > 0 {
		w := q.waiters[0]
		copy(q.waiters, q.waiters[1:])
		q.waiters = q.waiters[:len(q.waiters)-1]
		w.item = item
		w.ready = true
		w.p.wake()
		return
	}
	q.items = append(q.items, item)
}

// Pop removes and returns the oldest item, blocking while the queue is
// empty.
func (q *Queue[T]) Pop(p *Proc) T {
	if len(q.items) > 0 {
		item := q.items[0]
		copy(q.items, q.items[1:])
		var zero T
		q.items[len(q.items)-1] = zero
		q.items = q.items[:len(q.items)-1]
		return item
	}
	var w *queueWaiter[T]
	if last := len(q.wpool) - 1; last >= 0 {
		w = q.wpool[last]
		q.wpool = q.wpool[:last]
	} else {
		w = new(queueWaiter[T]) // pool refill; amortised to zero in steady state
	}
	w.p = p
	q.waiters = append(q.waiters, w)
	p.park(q.parkLabel)
	if !w.ready {
		panic("sim: queue waiter woken without item: " + q.name)
	}
	item := w.item
	*w = queueWaiter[T]{}
	q.wpool = append(q.wpool, w)
	return item
}

// TryPop removes and returns the oldest item without blocking. The second
// result reports whether an item was available.
func (q *Queue[T]) TryPop() (T, bool) {
	var zero T
	if len(q.items) == 0 {
		return zero, false
	}
	item := q.items[0]
	copy(q.items, q.items[1:])
	q.items[len(q.items)-1] = zero
	q.items = q.items[:len(q.items)-1]
	return item, true
}

// Reactor is a Queue served by one daemon process that starts on the
// queue's first item, not before: a reactor that never gets work never
// exists. The first item is handed to the new process the way Push hands
// an item to a parked Pop — the queue never holds it, and the spawn
// takes the (t, seq) place the wake would have had — so Len, and the
// order in which everything runs, read as if the daemon had been parked
// on Pop since construction. Later items go through Push and Pop as on
// any Queue, and once started the daemon stays, across Restore, until
// Shutdown.
type Reactor[T any] struct {
	Queue[T]
	sim     *Simulator
	proc    string                 // the daemon's process name
	body    func(p *Proc, first T) // the daemon: first is its first item, later ones come from Pop
	started bool
}

// NewReactor returns a reactor whose queue is labelled queue and whose
// daemon, named proc, will run body.
func NewReactor[T any](s *Simulator, queue, proc string, body func(p *Proc, first T)) *Reactor[T] {
	return &Reactor[T]{Queue: Queue[T]{name: queue, parkLabel: "queue " + queue}, sim: s, proc: proc, body: body}
}

// Push hands item to the daemon, starting it if this is its first item.
// It is safe to call from scheduler context.
func (r *Reactor[T]) Push(item T) {
	if r.started {
		r.Queue.Push(item)
		return
	}
	r.start(item)
}

// start spawns the daemon on its first item. It allocates the daemon's
// closure (and, when no coroutine is idle, its goroutine) once per
// reactor, which is why it sits outside Push.
func (r *Reactor[T]) start(first T) {
	r.started = true
	r.sim.GoDaemon(r.proc, func(p *Proc) { r.body(p, first) })
}

// resourceWaiter is a parked acquirer and the amount it needs.
type resourceWaiter struct {
	p       *Proc
	n       int64
	granted bool
}

// Resource is a FIFO-fair counting semaphore in virtual time. It models
// finite facilities such as DMA engine descriptor slots or a link's
// outstanding-transaction budget. Waiters are served strictly in arrival
// order; a large request at the head blocks smaller later ones, which
// preserves fairness and keeps timing deterministic.
type Resource struct {
	name      string
	parkLabel string
	capacity  int64
	free      int64
	waiters   []*resourceWaiter
	wpool     []*resourceWaiter // recycled waiter records, as in Queue
}

// NewResource returns a resource with the given capacity, all free.
func NewResource(name string, capacity int64) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive: " + name)
	}
	return &Resource{name: name, parkLabel: "resource " + name, capacity: capacity, free: capacity}
}

// Capacity returns the total capacity.
func (r *Resource) Capacity() int64 { return r.capacity }

// Free returns the currently available capacity.
func (r *Resource) Free() int64 { return r.free }

// Acquire blocks until n units are available and takes them. n must not
// exceed the resource's capacity.
func (r *Resource) Acquire(p *Proc, n int64) {
	if n > r.capacity {
		panic("sim: acquire exceeds capacity of resource " + r.name)
	}
	if len(r.waiters) == 0 && r.free >= n {
		r.free -= n
		return
	}
	var w *resourceWaiter
	if last := len(r.wpool) - 1; last >= 0 {
		w = r.wpool[last]
		r.wpool = r.wpool[:last]
	} else {
		w = new(resourceWaiter) // pool refill; amortised to zero in steady state
	}
	w.p, w.n, w.granted = p, n, false
	r.waiters = append(r.waiters, w)
	p.park(r.parkLabel)
	if !w.granted {
		panic("sim: resource waiter woken without grant: " + r.name)
	}
	*w = resourceWaiter{}
	r.wpool = append(r.wpool, w)
}

// Release returns n units and serves queued waiters in FIFO order.
// It is safe to call from scheduler context.
func (r *Resource) Release(n int64) {
	r.free += n
	if r.free > r.capacity {
		panic("sim: release overflows capacity of resource " + r.name)
	}
	for len(r.waiters) > 0 {
		head := r.waiters[0]
		if r.free < head.n {
			return
		}
		r.free -= head.n
		head.granted = true
		copy(r.waiters, r.waiters[1:])
		r.waiters = r.waiters[:len(r.waiters)-1]
		head.p.wake()
	}
}

// Mutex is a virtual-time mutual-exclusion lock with FIFO handoff.
type Mutex struct{ r *Resource }

// NewMutex returns an unlocked mutex labelled name.
func NewMutex(name string) *Mutex { return &Mutex{r: NewResource(name, 1)} }

// Lock blocks until the mutex is held by the caller.
func (m *Mutex) Lock(p *Proc) { m.r.Acquire(p, 1) }

// Unlock releases the mutex, handing it to the longest waiter if any.
func (m *Mutex) Unlock() { m.r.Release(1) }

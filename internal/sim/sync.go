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
// Broadcast may be called from process or scheduler context. A Cond is
// usable as its zero value, embedded in a larger one; Init names it.
type Cond struct {
	name    Name
	waiters []*Proc
}

// NewCond returns a condition variable labelled name for deadlock reports.
func NewCond(name string) *Cond {
	c := new(Cond)
	c.Init(Named(name))
	return c
}

// Init names a condition variable for deadlock reports.
func (c *Cond) Init(name Name) { c.name = name }

func (c *Cond) blockLabel() string { return "cond " + c.name.String() }

// Wait parks the calling process until a Broadcast wakes it.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.park(c)
}

// Broadcast wakes every currently waiting process.
func (c *Cond) Broadcast() {
	for _, w := range c.waiters {
		w.wake()
	}
	c.waiters = c.waiters[:0]
}

// Completion is a one-shot latch: processes that Wait before Complete is
// called park until it fires; afterwards Wait returns immediately.
// The zero value is an incomplete latch; Init names it (the name only
// affects diagnostics).
type Completion struct {
	done bool
	cond Cond // its name is the latch's
}

// NewCompletion returns an unfired latch labelled name.
func NewCompletion(name string) *Completion {
	c := new(Completion)
	c.Init(Named(name))
	return c
}

// Init names a latch for deadlock reports.
func (c *Completion) Init(name Name) { c.cond.Init(name) }

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
		panic("sim: Reset of an unfired completion: " + c.cond.name.String())
	}
	if len(c.cond.waiters) != 0 {
		panic("sim: Reset of a completion with parked waiters: " + c.cond.name.String())
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
// starve. A Queue is usable as its zero value, embedded in a larger one;
// Init names it.
type Queue[T any] struct {
	name    Name
	items   []T
	waiters []*queueWaiter[T]
	// wpool recycles waiter records: a waiter's lifetime is confined to
	// one Pop call, so the record is returned here as Pop unblocks and
	// the steady-state park path allocates nothing.
	wpool []*queueWaiter[T]
}

// NewQueue returns an empty queue labelled name.
func NewQueue[T any](name string) *Queue[T] {
	q := new(Queue[T])
	q.Init(Named(name))
	return q
}

// Init names a queue for deadlock reports.
func (q *Queue[T]) Init(name Name) { q.name = name }

func (q *Queue[T]) blockLabel() string { return "queue " + q.name.String() }

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
	p.park(q)
	if !w.ready {
		panic("sim: queue waiter woken without item: " + q.name.String())
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
//
// The daemon runs body(recv, p, first). Passing the owner and a method
// expression, (*Owner).serve, instead of a method value keeps building a
// reactor free of allocation: the one closure a daemon needs is made
// when it starts. A Reactor is usable embedded in its owner once Init
// has set it up.
type Reactor[R, T any] struct {
	Queue[T]
	sim     *Simulator
	proc    string                         // the daemon's name is the queue's with this prefix
	recv    R                              // body's receiver, the reactor's owner
	body    func(recv R, p *Proc, first T) // the daemon: first is its first item, later ones come from Pop
	started bool
}

// Init sets up a reactor embedded in its owner: its queue is labelled
// queue, and its daemon, named as queue is but with the prefix proc,
// will run body(recv, …).
func (r *Reactor[R, T]) Init(s *Simulator, queue Name, proc string, recv R, body func(recv R, p *Proc, first T)) {
	r.Queue.Init(queue)
	r.sim, r.proc, r.recv, r.body = s, proc, recv, body
}

// Push hands item to the daemon, starting it if this is its first item.
// It is safe to call from scheduler context.
func (r *Reactor[R, T]) Push(item T) {
	if r.started {
		r.Queue.Push(item)
		return
	}
	r.start(item)
}

// start spawns the daemon on its first item. It allocates the daemon's
// closure (and, when no coroutine is idle, its goroutine) once per
// reactor, which is why it sits outside Push.
func (r *Reactor[R, T]) start(first T) {
	r.started = true
	r.sim.goDaemon(Name{prefix: r.proc, of: r.name.of}, func(p *Proc) { r.body(r.recv, p, first) })
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
	name     Name
	capacity int64
	free     int64
	waiters  []*resourceWaiter
	wpool    []*resourceWaiter // recycled waiter records, as in Queue
}

// Init sets up a resource embedded in a larger value, all of its
// capacity free.
func (r *Resource) Init(name Name, capacity int64) {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive: " + name.String())
	}
	r.name, r.capacity, r.free = name, capacity, capacity
}

func (r *Resource) blockLabel() string { return "resource " + r.name.String() }

// Capacity returns the total capacity.
func (r *Resource) Capacity() int64 { return r.capacity }

// Free returns the currently available capacity.
func (r *Resource) Free() int64 { return r.free }

// Acquire blocks until n units are available and takes them. n must not
// exceed the resource's capacity.
func (r *Resource) Acquire(p *Proc, n int64) {
	if n > r.capacity {
		panic("sim: acquire exceeds capacity of resource " + r.name.String())
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
	p.park(r)
	if !w.granted {
		panic("sim: resource waiter woken without grant: " + r.name.String())
	}
	*w = resourceWaiter{}
	r.wpool = append(r.wpool, w)
}

// Release returns n units and serves queued waiters in FIFO order.
// It is safe to call from scheduler context.
func (r *Resource) Release(n int64) {
	r.free += n
	if r.free > r.capacity {
		panic("sim: release overflows capacity of resource " + r.name.String())
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

// Mutex is a virtual-time mutual-exclusion lock with FIFO handoff. It is
// usable embedded in a larger value once Init has named it.
type Mutex struct{ r Resource }

// Init names an unlocked mutex.
func (m *Mutex) Init(name Name) { m.r.Init(name, 1) }

// Lock blocks until the mutex is held by the caller.
func (m *Mutex) Lock(p *Proc) { m.r.Acquire(p, 1) }

// Unlock releases the mutex, handing it to the longest waiter if any.
func (m *Mutex) Unlock() { m.r.Release(1) }

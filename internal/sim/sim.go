package sim

import (
	"fmt"
	"iter"
	"sort"
	"strings"
)

// Simulator is a deterministic discrete-event scheduler.
//
// The zero value is not ready for use; call New. The run loop executes in
// the goroutine that calls Run and switches into one process coroutine at
// a time; a process switches back when it blocks on a kernel primitive
// (Sleep, Queue.Pop, Resource.Acquire, Cond.Wait, ...) whose wake is not
// the very next event.
type Simulator struct {
	// simState is the per-run state a Snapshot captures and Restore
	// assigns back whole. Every other field is construction identity,
	// must be drained at quiescence, or is rezeroed by Restore.
	simState

	events eventQueue // always &ladderQ outside tests; heap_test.go swaps in the reference heap

	// The queue backing lives inside the Simulator so reaching it
	// through the interface field costs no extra allocation.
	ladderQ ladderQueue // emptied via events; empty at quiescence

	// ready is the same-timestamp fast path: events scheduled for the
	// current instant never touch the heap. Because seq grows
	// monotonically, any event scheduled at the current time sorts after
	// every event already in the heap at that time, so a plain FIFO
	// (drained only once the heap holds nothing at now) preserves the
	// exact (t, seq) global order the heap alone would produce.
	ready     []event
	readyHead int

	procs map[*Proc]struct{} // parked daemons survive a restore by design

	// idle is the top of a stack, linked through coro.below, of the
	// coroutines whose last body returned, warmest first; GoAfter reuses
	// them before it starts a goroutine.
	idle *coro // holds no Proc, no event and no simulation state

	fatal   error // first panic captured from a process; Restore refuses a failed sim
	running bool
	killed  bool // Shutdown is terminal

	// runEnd is the exclusive time bound of the run in progress: one past
	// RunUntil's deadline, or timeInf under Run. run sets it before
	// anything reads it.
	runEnd Time // only live inside run, which sets it first

	// trace, when set, observes every dispatched event (TraceDispatch).
	trace func(t Time, seq uint64, kind byte, proc string) // an observer, not state

	executed uint64 // events dispatched since New or the last Restore; the world snapshot records its own event count
}

// simState is the kernel clock: the virtual time and the event sequence
// counter that breaks same-timestamp ties.
type simState struct {
	now Time
	seq uint64
}

// timeInf is the bound of a run with no deadline.
const timeInf = Time(1<<63 - 1)

// errKilled aborts a blocking call issued from a defer while Shutdown is
// unwinding the goroutine.
var errKilled = fmt.Errorf("sim: blocking call during Shutdown teardown")

// New returns an empty simulator positioned at virtual time zero.
func New() *Simulator {
	s := &Simulator{
		ready: make([]event, 0, 64),
		procs: make(map[*Proc]struct{}),
	}
	s.ladderQ.bottom.items = make([]event, 0, 128)
	s.events = &s.ladderQ
	return s
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// EventsExecuted returns the number of events dispatched since New or the
// last Restore. It is the kernel-level cost of a run — a stable, virtual
// measure benchmark harnesses can use to order work largest-first without
// consulting the wall clock.
func (s *Simulator) EventsExecuted() uint64 { return s.executed }

// TraceDispatch makes s report every event it dispatches, in dispatch
// order, to fn: the event's time and sequence number, its kind ('p' a
// process wake, 't' a Ticker, 'f' a callback) and the woken process's
// name. The stream is the kernel-level witness of dispatch order that
// the golden-digest tests pin; a nil fn stops the reports.
func (s *Simulator) TraceDispatch(fn func(t Time, seq uint64, kind byte, proc string)) {
	s.trace = fn
}

func (s *Simulator) traceEvent(ev *event) {
	switch {
	case ev.proc != nil:
		s.trace(ev.t, ev.seq, 'p', ev.proc.name)
	case ev.ticker != nil:
		s.trace(ev.t, ev.seq, 't', "")
	default:
		s.trace(ev.t, ev.seq, 'f', "")
	}
}

// schedule enqueues fn to run at time t. Panics if t is in the past.
func (s *Simulator) schedule(t Time, fn func()) {
	s.scheduleEvent(t, event{fn: fn})
}

// scheduleProc enqueues a wake of p at time t without allocating a
// closure — the kernel's hottest operation.
func (s *Simulator) scheduleProc(t Time, p *Proc) {
	s.scheduleEvent(t, event{proc: p})
}

func (s *Simulator) scheduleEvent(t Time, ev event) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v, before now %v", t, s.now))
	}
	s.seq++
	ev.t, ev.seq = t, s.seq
	if t == s.now {
		s.ready = append(s.ready, ev)
		return
	}
	s.events.push(ev)
}

// After enqueues fn to run d from now. A negative d is treated as zero.
// fn executes in scheduler context: it must not block on kernel
// primitives; to run blocking code, have fn spawn or wake a process.
func (s *Simulator) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.schedule(s.now.Add(d), fn)
}

// Ticker is a timer target for AfterTick. Tick runs in scheduler
// context under the same rules as an After callback: it must not block
// on kernel primitives.
type Ticker interface {
	Tick(arg uint64)
}

// AfterTick enqueues tk.Tick(arg) to run d from now, like After but
// without allocating a closure: the event carries the receiver and one
// opaque argument inline. Components that arm a timer per chunk or per
// solve (doorbell interrupt delivery, flow-completion wakeups) use this
// so the timer path stays allocation-free; the argument typically
// carries a generation stamp for stale-event detection or a small
// payload such as doorbell bits.
func (s *Simulator) AfterTick(d Duration, tk Ticker, arg uint64) {
	if tk == nil {
		panic("sim: AfterTick with nil Ticker")
	}
	if d < 0 {
		d = 0
	}
	s.scheduleEvent(s.now.Add(d), event{ticker: tk, targ: arg})
}

// Go spawns a new process executing body and schedules it to start now.
// The name is used in deadlock reports and traces.
func (s *Simulator) Go(name string, body func(p *Proc)) *Proc {
	return s.GoAfter(name, 0, body)
}

// GoDaemon spawns a service process that is allowed to outlive the
// workload: a simulation whose only remaining parked processes are
// daemons is complete, not deadlocked. Use it for device engines and
// interrupt dispatchers that loop forever.
func (s *Simulator) GoDaemon(name string, body func(p *Proc)) *Proc {
	p := s.GoAfter(name, 0, body)
	p.daemon = true
	return p
}

// GoAfter spawns a new process that starts d from now.
//
// A body that panics fails the simulation: Run returns the panic wrapped
// in an error (errors.As finds a typed panic value). A body that calls
// runtime.Goexit — t.FailNow and t.Fatal do — fails it the same way and
// then, as iter.Pull specifies, ends the goroutine that was running the
// loop once its defers have run: Run's caller.
//
// The body runs on the most recently idled coroutine (see coro); only
// when none is idle does GoAfter start a goroutine.
func (s *Simulator) GoAfter(name string, d Duration, body func(p *Proc)) *Proc {
	var p *Proc
	if co := s.idle; co != nil {
		s.idle, co.below = co.below, nil
		p = &Proc{sim: s, name: name, body: body, co: co}
		co.p = p
	} else {
		pc := &procCoro{p: Proc{sim: s, name: name, body: body}}
		p = &pc.p
		p.co = &pc.co
		pc.co.p = p
		s.startCoro(&pc.co)
	}
	s.procs[p] = struct{}{}
	if d < 0 {
		d = 0
	}
	s.scheduleProc(s.now.Add(d), p)
	return p
}

// startCoro starts co's goroutine, parked until the first next. It runs
// co.p's body, then each later one it is handed while idle; a body that
// panics or calls runtime.Goexit, or one Shutdown unwinds, ends it.
func (s *Simulator) startCoro(co *coro) {
	co.next, co.stop = iter.Pull(func(yield func(struct{}) bool) {
		co.yield = yield
		for s.runBody(co.p) {
			co.p = nil
			co.below, s.idle = s.idle, co
			if !yield(struct{}{}) {
				return // Shutdown stopped it while idle
			}
		}
	})
}

// runBody runs p's body and reports whether it returned. A panic or a
// runtime.Goexit fails the simulation (the first failure wins); either
// way p leaves the live set.
func (s *Simulator) runBody(p *Proc) (returned bool) {
	defer func() {
		r := recover()
		if s.killed {
			// Shutdown is unwinding this coroutine; whatever its
			// defers raised (errKilled) ends here.
			return
		}
		if s.fatal == nil {
			if err, ok := r.(error); ok {
				// Preserve typed panics (e.g. a runtime's
				// global-exit) for errors.As at the caller.
				s.fatal = fmt.Errorf("sim: process %q panicked: %w", p.name, err)
			} else if r != nil {
				s.fatal = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
			} else if !returned {
				s.fatal = fmt.Errorf("sim: process %q called runtime.Goexit", p.name)
			}
		}
		delete(s.procs, p)
	}()
	body := p.body
	p.body = nil
	body(p)
	return true
}

// peekNext reports the event the run loop dispatches next, or nil: a
// queued event at now (scheduled before time advanced here, so it
// precedes everything in ready), else the head of the ready FIFO, else
// the queue head if it lies before runEnd. queued tells which of the
// two holds it. The run loop and park's own-wake test both select
// through here, so the rule exists once.
func (s *Simulator) peekNext() (ev *event, queued bool) {
	ev = s.events.peek()
	switch {
	case ev != nil && ev.t == s.now:
		return ev, true
	case s.readyHead < len(s.ready):
		return &s.ready[s.readyHead], false
	case ev != nil && ev.t < s.runEnd:
		return ev, true
	}
	return nil, false
}

// consume removes the event peekNext just reported, advances the clock
// to it and counts it. ev is dead afterwards.
func (s *Simulator) consume(ev *event, queued bool) {
	s.executed++
	if s.trace != nil {
		s.traceEvent(ev)
	}
	if queued {
		s.now = ev.t
		s.events.pop()
		return
	}
	*ev = event{} // release fn/proc for GC
	s.readyHead++
	if s.readyHead == len(s.ready) {
		s.ready = s.ready[:0]
		s.readyHead = 0
	}
}

// Run executes events until the queue drains or a process panics.
// It returns an error if a process panicked, or a deadlock error if
// processes remain parked with no pending events. A simulation in which
// all processes ran to completion returns nil.
func (s *Simulator) Run() error {
	return s.run(-1)
}

// RunUntil executes events with time ≤ deadline. Parked processes at the
// deadline are not a deadlock; the clock simply stops advancing.
func (s *Simulator) RunUntil(deadline Time) error {
	return s.run(deadline)
}

// run is the one event loop: it dispatches events with time ≤ deadline,
// or every event when deadline is negative.
func (s *Simulator) run(deadline Time) error {
	if s.running {
		return fmt.Errorf("sim: Run called reentrantly")
	}
	s.running = true
	s.runEnd = timeInf
	if deadline >= 0 && deadline < timeInf {
		s.runEnd = deadline + 1
	}
	defer func() { s.running = false }()

	for s.fatal == nil {
		next, queued := s.peekNext()
		if next == nil {
			break
		}
		ev := *next
		s.consume(next, queued)
		switch {
		case ev.proc != nil:
			ev.proc.co.next() // runs the process until it parks or returns
		case ev.ticker != nil:
			ev.ticker.Tick(ev.targ)
		default:
			ev.fn()
		}
	}
	if s.fatal != nil {
		return s.fatal
	}
	if deadline < 0 {
		if s.nondaemonProcs() > 0 {
			return s.deadlockError()
		}
	} else if _, pending := s.nextTime(); pending {
		s.now = deadline
	}
	return nil
}

// nextTime reports the timestamp of the earliest pending event, or false
// when the queue is empty. Events parked in the ready FIFO are at now by
// construction.
func (s *Simulator) nextTime() (Time, bool) {
	if s.readyHead < len(s.ready) {
		return s.now, true
	}
	if ev := s.events.peek(); ev != nil {
		return ev.t, true
	}
	return 0, false
}

func (s *Simulator) nondaemonProcs() int {
	n := 0
	for p := range s.procs {
		if !p.daemon {
			n++
		}
	}
	return n
}

func (s *Simulator) deadlockError() error {
	names := make([]string, 0, len(s.procs))
	//ntblint:ordered — the report is sorted below, so iteration order never shows
	for p := range s.procs {
		if p.daemon {
			continue
		}
		names = append(names, fmt.Sprintf("%s (blocked on %s)", p.name, p.blockedOn))
	}
	sort.Strings(names)
	return fmt.Errorf("sim: deadlock at %v: %d process(es) parked with no pending events: %s",
		s.now, len(names), strings.Join(names, ", "))
}

// LiveProcs reports the number of processes that have been spawned and have
// not yet exited.
func (s *Simulator) LiveProcs() int { return len(s.procs) }

// Reset rewinds a finished simulator to virtual time zero so its world
// can run again without rebuilding the object graph: Restore of the
// zero Snapshot, which is what a just-built kernel is positioned at.
func (s *Simulator) Reset() { s.Restore(Snapshot{}) }

// assertQuiescent panics unless the simulator is between runs with every
// non-daemon process exited and no events pending — the precondition
// shared by Snapshot and Restore.
func (s *Simulator) assertQuiescent(op string) {
	if s.running {
		panic("sim: " + op + " during Run")
	}
	if s.killed {
		panic("sim: " + op + " after Shutdown")
	}
	if s.fatal != nil {
		panic("sim: " + op + " of a failed simulation: " + s.fatal.Error())
	}
	if n := s.nondaemonProcs(); n > 0 {
		panic(fmt.Sprintf("sim: %s with %d non-daemon process(es) live", op, n))
	}
	if s.events.Len() > 0 || s.readyHead < len(s.ready) {
		panic("sim: " + op + " with pending events")
	}
}

// Shutdown releases every parked process coroutine (daemons included),
// every idle one, and drops pending events, so a finished simulation's
// entire object graph — window buffers, heaps, queues — becomes
// collectable. Harnesses that build many simulators in one process
// (benchmarks, fuzzers) must call it between instances or the parked
// and idle coroutines pin their worlds' memory and goroutines. The
// simulator must not be running; after Shutdown it must not be used
// except to read the clock.
func (s *Simulator) Shutdown() {
	if s.running {
		panic("sim: Shutdown during Run")
	}
	if s.killed {
		return
	}
	s.killed = true
	// An idle coroutine runs no body: its parked yield reports false and
	// it returns, so stop returns here without a Goexit.
	for co := s.idle; co != nil; co = co.below {
		co.stop()
	}
	s.idle = nil
	//ntblint:ordered — teardown runs after the last observable event; release order is invisible
	for p := range s.procs {
		// Sequential teardown: each coroutine fully unwinds (its user
		// defers may touch state shared with sibling processes) before
		// the next is released. A parked body leaves through Goexit,
		// which iter.Pull re-raises in the caller of stop — hence the
		// throw-away goroutine.
		unwound := make(chan struct{})
		go func() {
			defer close(unwound)
			p.co.stop()
		}()
		<-unwound
	}
	s.procs = make(map[*Proc]struct{})
	s.ladderQ = ladderQueue{}
	s.events = &s.ladderQ
	s.ready, s.readyHead = nil, 0
}

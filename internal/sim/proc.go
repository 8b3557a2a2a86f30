package sim

import (
	"runtime"
)

// Proc is a simulation process: a body scheduled on virtual time.
// A Proc's body runs on a coro that the run loop switches into (next)
// and that switches back when it blocks (yield), so only one process
// executes at a time and process code needs no locking when touching
// simulation state.
//
// All blocking methods must be called from the process's own body.
type Proc struct {
	sim  *Simulator
	name Name
	body func(p *Proc) // cleared when the body starts, so a finished Proc pins no closure
	co   *coro         // also holds the process's daemon flag and what it is blocked on
}

// coro is an iter.Pull coroutine that runs process bodies one after
// another: next runs the current body until it parks or returns, yield
// parks it, stop makes a parked yield report false (see Shutdown). When
// a body returns, the coroutine parks itself on Simulator.idle, and the
// next spawn resumes it — with the stack the last body grew — instead of
// starting a goroutine.
type coro struct {
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()
	p     *Proc // the process it runs; nil while idle
	below *coro // the next idle coroutine down Simulator.idle's stack

	// The process p's kernel bookkeeping lives here, which keeps a Proc,
	// allocated at every spawn, at 64 bytes.
	daemon    bool    // daemons may remain parked at end of simulation
	blockedOn blocker // what p's latest switching park waits on, read by deadlock reports (when every process is parked)
}

// procCoro is a fresh spawn's Proc and coroutine, allocated as one object.
type procCoro struct {
	p  Proc
	co coro
}

// Name returns the process name given at spawn time, formatted.
func (p *Proc) Name() string { return p.name.String() }

// Sim returns the simulator this process belongs to.
func (p *Proc) Sim() *Simulator { return p.sim }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.sim.now }

// park suspends the process until some event wakes it. Every park must
// be paired with exactly one wake. If that wake is the very event the
// run loop would dispatch next, park consumes it here and returns
// without leaving the coroutine; otherwise it switches to the run loop.
func (p *Proc) park(on blocker) {
	s := p.sim
	if s.killed {
		// A deferred call running during teardown tried to block (for
		// example a deferred symmetric Free sleeping for its software
		// cost). The run loop is gone; abort the call. The spawn
		// wrapper swallows this, and per Go's recover-during-Goexit
		// semantics the coroutine still terminates even if user code
		// recovers it.
		panic(errKilled)
	}
	if next, queued := s.peekNext(); next != nil && next.proc == p {
		s.consume(next, queued)
		return
	}
	p.co.blockedOn = on
	if !p.co.yield(struct{}{}) {
		// Shutdown is tearing the simulation down: terminate this
		// coroutine, running user defers on the way out. Goexit (not a
		// panic) so a recover in user code cannot intercept it.
		runtime.Goexit()
	}
}

// wake schedules p to resume at the current virtual time. It must only be
// used by kernel primitives that know p is parked and not yet woken.
func (p *Proc) wake() {
	p.sim.scheduleProc(p.sim.now, p)
}

// wakeAfter schedules p to resume d from now.
func (p *Proc) wakeAfter(d Duration) {
	if d < 0 {
		d = 0
	}
	p.sim.scheduleProc(p.sim.now.Add(d), p)
}

// Sleep suspends the process for d of virtual time. A non-positive d
// yields the processor for one scheduling round (other events at the same
// timestamp run first).
func (p *Proc) Sleep(d Duration) {
	p.wakeAfter(d)
	p.park(sleeping{})
}

// Yield lets every other event already scheduled at the current instant
// run before this process continues.
func (p *Proc) Yield() { p.Sleep(0) }

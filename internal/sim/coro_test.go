package sim

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// Edge cases of the coroutine kernel: the own-wake fast path in park must
// obey exactly the run loop's selection rule (deadline, tie order), and
// spawn/teardown/failure must behave as they did when every process was
// a goroutine behind a channel pair. Shutdown of a parked
// daemon and of a body whose defer blocks are TestShutdownRunsUserDefers
// and TestShutdownSurvivesBlockingDefers in daemon_test.go.

// TestRunUntilLeavesOwnWakePastDeadline: a lone sleeper's wake is always
// the next event, so every one of them is a candidate for inline
// consumption — but not one past the deadline.
func TestRunUntilLeavesOwnWakePastDeadline(t *testing.T) {
	s := New()
	var woke []Time
	s.Go("sleeper", func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Sleep(30 * Microsecond)
			woke = append(woke, p.Now())
		}
	})
	us := func(n int) Time { return Time(Duration(n) * Microsecond) }
	for _, step := range []struct {
		deadline Time
		woke     []Time
		now      Time
		executed uint64
	}{
		{us(50), []Time{us(30)}, us(50), 2},                             // start + wake@30; wake@60 stays queued
		{us(59), []Time{us(30)}, us(59), 2},                             // nothing due: only the clock moves
		{us(60), []Time{us(30), us(60)}, us(60), 3},                     // the deadline is inclusive
		{us(1000), []Time{us(30), us(60), us(90), us(120)}, us(120), 5}, // drained: clock stays at the last event
	} {
		if err := s.RunUntil(step.deadline); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(woke, step.woke) || s.Now() != step.now || s.EventsExecuted() != step.executed {
			t.Fatalf("RunUntil(%v): woke %v, now %v, %d events; want %v, %v, %d",
				step.deadline, woke, s.Now(), s.EventsExecuted(), step.woke, step.now, step.executed)
		}
	}
	if s.LiveProcs() != 0 {
		t.Fatalf("%d processes live after the sleeper returned", s.LiveProcs())
	}
}

// TestQueuedEventAtNowPrecedesOwnYield: a process that yields while an
// earlier-scheduled event is still queued at the current instant must
// not consume its own ready-FIFO wake ahead of it.
func TestQueuedEventAtNowPrecedesOwnYield(t *testing.T) {
	s := New()
	var order []string
	s.Go("p", func(p *Proc) {
		p.Sleep(10) // wake queued at t=10 first ...
		order = append(order, "p woke")
		p.Yield()
		order = append(order, "p resumed")
	})
	s.Go("arm", func(p *Proc) {
		s.After(10, func() { order = append(order, "callback") }) // ... the callback second
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"p woke", "callback", "p resumed"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
}

// TestYieldDoesNotJumpEarlierWake: a process that yields behind another
// process's same-instant wake in the ready FIFO waits its turn.
func TestYieldDoesNotJumpEarlierWake(t *testing.T) {
	s := New()
	var order []string
	c := NewCond("go")
	s.Go("q", func(p *Proc) {
		c.Wait(p)
		order = append(order, "q woke")
	})
	s.Go("p", func(p *Proc) {
		p.Sleep(10)
		c.Broadcast() // q's wake enters the ready FIFO first
		order = append(order, "p signalled")
		p.Yield()
		order = append(order, "p resumed")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"p signalled", "q woke", "p resumed"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
}

// TestShutdownOfNeverStartedProcess: a coroutine whose first dispatch
// never came is released without running its body.
func TestShutdownOfNeverStartedProcess(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		s := New()
		s.Go("unrun", func(p *Proc) { t.Error("body of a never-run simulator started") })
		s.Shutdown()

		s = New()
		s.GoAfter("late", 100*Microsecond, func(p *Proc) { t.Error("body started after Shutdown") })
		if err := s.RunUntil(Time(10 * Microsecond)); err != nil {
			t.Fatal(err)
		}
		s.Shutdown()
		if s.LiveProcs() != 0 {
			t.Fatalf("%d processes live after Shutdown", s.LiveProcs())
		}
	}
	assertGoroutinesReleased(t, before)
}

type exitCode struct{ code int }

func (e *exitCode) Error() string { return fmt.Sprintf("exit %d", e.code) }

// TestTypedPanicReachesRunCaller: a body's panic value that is an error
// stays reachable through errors.As on Run's result.
func TestTypedPanicReachesRunCaller(t *testing.T) {
	s := New()
	defer s.Shutdown()
	s.Go("bystander", func(p *Proc) { p.Sleep(Second) })
	s.Go("exiter", func(p *Proc) {
		p.Sleep(Microsecond) // the panic comes after an inline own-wake
		panic(&exitCode{3})
	})
	err := s.Run()
	var ec *exitCode
	if !errors.As(err, &ec) || ec.code != 3 || !strings.Contains(err.Error(), `"exiter"`) {
		t.Fatalf("Run returned %v; want the exiter's *exitCode{3}", err)
	}
}

// TestGoexitInBodyEndsRunCaller pins the documented outcome of
// runtime.Goexit (what t.FailNow does) inside a body: the simulation
// fails, Run's caller is ended after Run's defers, and the simulator can
// still be shut down.
func TestGoexitInBodyEndsRunCaller(t *testing.T) {
	s := New()
	c := NewCond("never")
	cleaned := false
	s.GoDaemon("parked", func(p *Proc) {
		defer func() { cleaned = true }()
		c.Wait(p)
	})
	s.Go("quitter", func(p *Proc) {
		p.Sleep(Microsecond)
		runtime.Goexit()
	})
	returned, ended := false, make(chan struct{})
	go func() {
		defer close(ended)
		s.Run() //nolint:errcheck — must not return at all
		returned = true
	}()
	<-ended
	if returned {
		t.Fatal("Run returned to a caller that Goexit should have ended")
	}
	if err := s.Run(); err == nil || !strings.Contains(err.Error(), `"quitter" called runtime.Goexit`) {
		t.Fatalf("second Run returned %v; want the recorded Goexit failure", err)
	}
	s.Shutdown()
	if !cleaned || s.LiveProcs() != 0 {
		t.Fatalf("Shutdown after Goexit: parked daemon cleaned=%v, %d processes live", cleaned, s.LiveProcs())
	}
}

// TestStandingProcessEventsAllocateNothing: once processes exist, no
// kind of event allocates — a park that consumes its own wake inline
// (sleeper), a park that switches to another process and back (the
// ping-pong pair), a contended Resource.Acquire (the two holders), a
// Cond.Wait (the waiter, woken by Broadcast), or a
// timer callback. Every
// allocation BenchmarkSimEventThroughput reports is therefore per spawn,
// and a label or ticker built per call on any of these park paths fails
// here.
func TestStandingProcessEventsAllocateNothing(t *testing.T) {
	s := New()
	defer s.Shutdown()
	ping, pong := NewQueue[int]("ping"), NewQueue[int]("pong")
	res := NewResource("slot", 1)
	for _, name := range []string{"holder-a", "holder-b"} {
		s.GoDaemon(name, func(p *Proc) {
			for {
				res.Acquire(p, 1)
				p.Sleep(2 * Microsecond)
				res.Release(1)
			}
		})
	}
	cond := NewCond("bell")
	s.GoDaemon("waiter", func(p *Proc) {
		for {
			cond.Wait(p)
		}
	})
	s.GoDaemon("broadcaster", func(p *Proc) {
		for {
			p.Sleep(5 * Microsecond)
			cond.Broadcast()
		}
	})
	s.GoDaemon("sleeper", func(p *Proc) {
		for {
			p.Sleep(Microsecond)
			p.Yield()
		}
	})
	s.GoDaemon("producer", func(p *Proc) {
		for {
			ping.Push(1)
			pong.Pop(p)
			p.Sleep(3 * Microsecond)
		}
	})
	s.GoDaemon("consumer", func(p *Proc) {
		for {
			ping.Pop(p)
			pong.Push(1)
		}
	})
	var tick tickCounter
	window := func() {
		s.AfterTick(Microsecond, &tick, 0)
		if err := s.RunUntil(s.Now().Add(100 * Microsecond)); err != nil {
			t.Fatal(err)
		}
	}
	window() // warm the queue and ready-FIFO backings
	e0 := s.EventsExecuted()
	if allocs := testing.AllocsPerRun(20, window); allocs != 0 {
		t.Fatalf("%.1f allocations per 100us window of standing processes, want 0", allocs)
	}
	if n := s.EventsExecuted() - e0; n < 21*300 {
		t.Fatalf("only %d events in 21 windows: the processes are not running", n)
	}
}

type tickCounter struct{ n int }

func (c *tickCounter) Tick(uint64) { c.n++ }

// Coroutine recycling: a finished body's coroutine parks on the idle
// stack and the next spawn resumes it instead of starting a goroutine.

// idleCount reports how many coroutines are parked on s's idle stack.
func idleCount(s *Simulator) int {
	n := 0
	for co := s.idle; co != nil; co = co.below {
		n++
	}
	return n
}

// sleepThenReturn is a non-capturing body, so spawning it allocates no
// closure.
func sleepThenReturn(p *Proc) { p.Sleep(Microsecond) }

// TestRecycledRunAddsNoGoroutine: a simulator's second batch of N
// processes, after Reset, runs on the first batch's coroutines.
func TestRecycledRunAddsNoGoroutine(t *testing.T) {
	const n = 16
	s := New()
	defer s.Shutdown()
	batch := func() {
		for i := 0; i < n; i++ {
			s.Go(fmt.Sprintf("w%d", i), sleepThenReturn)
		}
	}
	batch()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := idleCount(s); got != n {
		t.Fatalf("%d idle coroutines after %d processes returned, want %d", got, n, n)
	}
	before := runtime.NumGoroutine()
	s.Reset()
	batch()
	if got := runtime.NumGoroutine(); got != before {
		t.Fatalf("spawning onto idle coroutines changed the goroutine count %d -> %d", before, got)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := runtime.NumGoroutine(); got != before {
		t.Fatalf("a recycled run changed the goroutine count %d -> %d", before, got)
	}
	if got := idleCount(s); got != n {
		t.Fatalf("%d idle coroutines after the recycled run, want %d", got, n)
	}
}

// TestRecycledBodySeesOwnProc: a body resumed on a recycled coroutine
// gets the Proc it was spawned as — its name, its daemon flag, its place
// in a deadlock report — and nothing of the coroutine's previous process.
func TestRecycledBodySeesOwnProc(t *testing.T) {
	s := New()
	defer s.Shutdown()
	for i := 0; i < 3; i++ {
		s.Go(fmt.Sprintf("old%d", i), sleepThenReturn)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	var seen []string
	check := func(p *Proc) {
		seen = append(seen, p.Name())
		p.Sleep(Microsecond)
	}
	never := NewCond("never")
	svc := s.GoDaemon("svc", func(p *Proc) {
		check(p)
		never.Wait(p)
	})
	stuck := s.Go("stuck", func(p *Proc) {
		check(p)
		never.Wait(p)
	})
	s.Go("done", check)
	if got := idleCount(s); got != 0 {
		t.Fatalf("%d coroutines still idle: the three spawns did not reuse them", got)
	}
	err := s.Run()
	if want := []string{"svc", "stuck", "done"}; !reflect.DeepEqual(seen, want) {
		t.Fatalf("bodies saw names %v, want %v", seen, want)
	}
	if !svc.daemon || stuck.daemon {
		t.Fatalf("daemon flags svc=%v stuck=%v, want true false", svc.daemon, stuck.daemon)
	}
	if err == nil || !strings.Contains(err.Error(), "1 process(es) parked") ||
		!strings.Contains(err.Error(), "stuck (blocked on cond never)") || strings.Contains(err.Error(), "old") {
		t.Fatalf("Run returned %v; want a deadlock naming only stuck", err)
	}
}

// TestPanicOnRecycledCoroutineIsNotRecycled: a coroutine whose body
// panicked ends, as one that never ran another body would; it does not
// return to the idle stack.
func TestPanicOnRecycledCoroutineIsNotRecycled(t *testing.T) {
	s := New()
	defer s.Shutdown()
	s.Go("a", sleepThenReturn)
	s.Go("b", sleepThenReturn)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	s.Go("boom", func(p *Proc) {
		p.Sleep(Microsecond)
		panic("boom")
	})
	if got := idleCount(s); got != 1 {
		t.Fatalf("%d idle coroutines after one spawn of two, want 1", got)
	}
	if err := s.Run(); err == nil || !strings.Contains(err.Error(), `"boom" panicked`) {
		t.Fatalf("Run returned %v; want the panic", err)
	}
	if got := idleCount(s); got != 1 {
		t.Fatalf("%d idle coroutines after the panic, want 1", got)
	}
}

// TestGoexitOnRecycledCoroutineIsNotRecycled: likewise for a body that
// calls runtime.Goexit, which also ends Run's caller.
func TestGoexitOnRecycledCoroutineIsNotRecycled(t *testing.T) {
	s := New()
	defer s.Shutdown()
	s.Go("a", sleepThenReturn)
	s.Go("b", sleepThenReturn)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	s.Go("quitter", func(p *Proc) {
		p.Sleep(Microsecond)
		runtime.Goexit()
	})
	ended := make(chan struct{})
	go func() {
		defer close(ended)
		s.Run() //nolint:errcheck — must not return at all
	}()
	<-ended
	if err := s.Run(); err == nil || !strings.Contains(err.Error(), `"quitter" called runtime.Goexit`) {
		t.Fatalf("second Run returned %v; want the recorded Goexit failure", err)
	}
	if got := idleCount(s); got != 1 {
		t.Fatalf("%d idle coroutines after the Goexit, want 1", got)
	}
}

// TestShutdownReleasesIdleCoroutines: the goroutines parked on the idle
// stack end with the simulator, beside its parked daemons.
func TestShutdownReleasesIdleCoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		s := New()
		never := NewCond("never")
		s.GoDaemon("svc", func(p *Proc) { never.Wait(p) })
		for j := 0; j < 8; j++ {
			s.Go("w", sleepThenReturn)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		s.Reset()
		for j := 0; j < 4; j++ {
			s.GoAfter("late", Second, sleepThenReturn) // recycled, never started
		}
		if err := s.RunUntil(Time(Microsecond)); err != nil {
			t.Fatal(err)
		}
		s.Shutdown()
		if s.idle != nil || s.LiveProcs() != 0 {
			t.Fatalf("after Shutdown: %d idle coroutines, %d processes live", idleCount(s), s.LiveProcs())
		}
	}
	assertGoroutinesReleased(t, before)
}

// TestSpawnOnIdleCoroutineAllocatesOnlyProc: with a coroutine idle, a
// spawn of a non-capturing body and its whole run allocate at most the
// Proc.
func TestSpawnOnIdleCoroutineAllocatesOnlyProc(t *testing.T) {
	s := New()
	defer s.Shutdown()
	spawnAndRun := func() {
		s.Go("w", sleepThenReturn)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	spawnAndRun() // the one goroutine, and the queue backings
	if allocs := testing.AllocsPerRun(100, spawnAndRun); allocs > 1 {
		t.Fatalf("%.1f allocations per spawn onto an idle coroutine, want at most 1 (the Proc)", allocs)
	}
}

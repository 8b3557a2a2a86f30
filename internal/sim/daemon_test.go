package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestDaemonDoesNotDeadlockRun(t *testing.T) {
	s := New()
	q := NewQueue[int]("work")
	served := 0
	s.GoDaemon("server", func(p *Proc) {
		for {
			q.Pop(p)
			served++
		}
	})
	s.Go("client", func(p *Proc) {
		for i := 0; i < 5; i++ {
			q.Push(i)
			p.Sleep(Microsecond)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("run with parked daemon should succeed: %v", err)
	}
	if served != 5 {
		t.Fatalf("daemon served %d, want 5", served)
	}
	if s.LiveProcs() != 1 {
		t.Fatalf("daemon should still be live: %d", s.LiveProcs())
	}
}

func TestNonDaemonStillDeadlocks(t *testing.T) {
	s := New()
	q := NewQueue[int]("never")
	s.GoDaemon("ok-daemon", func(p *Proc) { q.Pop(p) })
	s.Go("stuck-app", func(p *Proc) { q.Pop(p) })
	err := s.Run()
	if err == nil {
		t.Fatal("expected deadlock")
	}
	if !strings.Contains(err.Error(), "stuck-app") {
		t.Fatalf("report should name the app: %v", err)
	}
	if strings.Contains(err.Error(), "ok-daemon") {
		t.Fatalf("report should not blame the daemon: %v", err)
	}
}

func TestDaemonPanicStillPropagates(t *testing.T) {
	s := New()
	s.GoDaemon("bad", func(p *Proc) {
		p.Sleep(Microsecond)
		panic("daemon exploded")
	})
	s.Go("app", func(p *Proc) { p.Sleep(10 * Microsecond) })
	err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "daemon exploded") {
		t.Fatalf("daemon panic lost: %v", err)
	}
}

func TestRunAfterRunContinues(t *testing.T) {
	// Run to completion, schedule more, run again — the clock keeps
	// monotonic time across runs.
	s := New()
	var first, second Time
	s.Go("a", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		first = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	s.Go("b", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		second = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if second <= first {
		t.Fatalf("clock went backwards: %v then %v", first, second)
	}
}

func TestYieldOrdersWithSameTimeEvents(t *testing.T) {
	s := New()
	var order []string
	s.Go("yielder", func(p *Proc) {
		s.After(0, func() { order = append(order, "event") })
		p.Yield()
		order = append(order, "after-yield")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "event" || order[1] != "after-yield" {
		t.Fatalf("yield ordering: %v", order)
	}
}

func TestQueuePointerItemsReleased(t *testing.T) {
	// Popping must zero the vacated slot so large buffers become
	// collectable; observable via TryPop returning distinct items.
	s := New()
	q := NewQueue[*[]byte]("bufs")
	s.Go("t", func(p *Proc) {
		a, b := &[]byte{1}, &[]byte{2}
		q.Push(a)
		q.Push(b)
		x, _ := q.TryPop()
		y, _ := q.TryPop()
		if x != a || y != b {
			t.Error("queue order broken for pointer items")
		}
		if _, ok := q.TryPop(); ok {
			t.Error("queue should be empty")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestResourceMisusePanics(t *testing.T) {
	assertPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	assertPanic("zero capacity", func() { new(Resource).Init(Named("r"), 0) })
	r := new(Resource)
	r.Init(Named("r"), 2)
	assertPanic("over-release", func() { r.Release(3) })
	s := New()
	s.Go("big", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("over-capacity acquire should panic")
			}
		}()
		r2 := new(Resource)
		r2.Init(Named("r2"), 1)
		r2.Acquire(p, 5)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEventThroughput(b *testing.B) {
	// Cost of scheduling and firing one event.
	s := New()
	s.Go("loop", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Microsecond)
		}
	})
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkQueueHandoff(b *testing.B) {
	s := New()
	q := NewQueue[int]("q")
	s.GoDaemon("consumer", func(p *Proc) {
		for {
			q.Pop(p)
		}
	})
	s.Go("producer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Push(i)
			p.Yield()
		}
	})
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

func TestShutdownReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		s := New()
		q := NewQueue[int]("work")
		for d := 0; d < 4; d++ {
			s.GoDaemon(fmt.Sprintf("daemon%d", d), func(p *Proc) {
				for {
					q.Pop(p)
				}
			})
		}
		s.Go("app", func(p *Proc) {
			q.Push(1)
			p.Sleep(Microsecond)
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		s.Shutdown()
		s.Shutdown() // idempotent
	}
	assertGoroutinesReleased(t, before)
}

// assertGoroutinesReleased fails t if the goroutine count has not come
// back to about before, after giving exiting goroutines a moment to be
// accounted.
func assertGoroutinesReleased(t *testing.T, before int) {
	t.Helper()
	for i := 0; i < 100 && runtime.NumGoroutine() > before+10; i++ {
		runtime.Gosched()
	}
	if after := runtime.NumGoroutine(); after > before+10 {
		t.Fatalf("goroutines leaked across shutdowns: %d -> %d", before, after)
	}
}

func TestShutdownRunsUserDefers(t *testing.T) {
	s := New()
	cleaned := false
	c := NewCond("never")
	s.GoDaemon("holder", func(p *Proc) {
		defer func() { cleaned = true }()
		c.Wait(p)
	})
	s.Go("app", func(p *Proc) { p.Sleep(Microsecond) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	s.Shutdown()
	if !cleaned {
		t.Fatal("user defer did not run during Shutdown")
	}
}

func TestShutdownIgnoresRecover(t *testing.T) {
	// A recover in user code must not intercept the teardown.
	s := New()
	resumed := false
	c := NewCond("never")
	s.GoDaemon("recoverer", func(p *Proc) {
		defer func() {
			recover() // must be a no-op during Goexit
			resumed = true
		}()
		c.Wait(p)
		t.Error("process continued past a killed park")
	})
	s.Go("app", func(p *Proc) { p.Sleep(Microsecond) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	s.Shutdown()
	if !resumed {
		t.Fatal("defer with recover did not run")
	}
}

func TestShutdownSurvivesBlockingDefers(t *testing.T) {
	// A process parked mid-operation whose defers themselves block (a
	// deferred Sleep) must not hang Shutdown.
	s := New()
	c := NewCond("never")
	deferRan := false
	s.GoDaemon("blocker", func(p *Proc) {
		defer func() {
			defer func() { recover(); deferRan = true }()
			p.Sleep(Microsecond) // blocking call during teardown
			t.Error("blocking defer completed normally during teardown")
		}()
		c.Wait(p)
	})
	s.Go("app", func(p *Proc) { p.Sleep(Microsecond) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		s.Shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown hung on a blocking defer")
	}
	if !deferRan {
		t.Fatal("teardown defer did not complete")
	}
}

func TestReactorRunsAsADaemonParkedSinceConstruction(t *testing.T) {
	// A Reactor's daemon must be indistinguishable from one spawned at
	// construction and parked on Pop: the same dispatch stream (times,
	// sequence numbers, kinds, names), the same Len after every Push, the
	// same service order. The eager daemon's spawn event is run and then
	// rewound away, since a reactor has none.
	type obs struct {
		now  Time
		item int
		qlen int
	}
	serve := func(p *Proc, item int, log *[]obs) {
		*log = append(*log, obs{p.Now(), item, -1})
		p.Sleep(2 * Microsecond)
	}
	client := func(s *Simulator, push func(int), qlen func() int, log *[]obs) {
		s.After(3*Microsecond, func() { push(99) })
		s.Go("client", func(p *Proc) {
			for i := 0; i < 6; i++ {
				push(i)
				*log = append(*log, obs{p.Now(), i, qlen()})
				if i%3 == 2 {
					p.Sleep(5 * Microsecond)
				}
			}
		})
	}
	run := func(s *Simulator) []string {
		var rec []string
		s.TraceDispatch(func(t Time, seq uint64, kind byte, proc string) {
			rec = append(rec, fmt.Sprintf("%d %d %c %s", t, seq, kind, proc))
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return rec
	}

	var eagerLog []obs
	eager := New()
	q := NewQueue[int]("work")
	eager.GoDaemon("server", func(p *Proc) {
		for {
			serve(p, q.Pop(p), &eagerLog)
		}
	})
	if err := eager.Run(); err != nil {
		t.Fatal(err)
	}
	eager.Reset()
	client(eager, q.Push, q.Len, &eagerLog)
	eagerTrace := run(eager)
	eager.Shutdown()

	var lazyLog []obs
	lazy := New()
	r := new(Reactor[*[]obs, int])
	r.Init(lazy, Named("work"), "server", &lazyLog, func(log *[]obs, p *Proc, item int) {
		for ; ; item = r.Pop(p) {
			serve(p, item, log)
		}
	})
	if err := lazy.Run(); err != nil || lazy.LiveProcs() != 0 || lazy.EventsExecuted() != 0 {
		t.Fatalf("a reactor before its first item: err %v, %d procs, %d events", err, lazy.LiveProcs(), lazy.EventsExecuted())
	}
	client(lazy, r.Push, r.Len, &lazyLog)
	lazyTrace := run(lazy)
	if lazy.LiveProcs() != 1 {
		t.Errorf("started reactor: %d live processes, want its daemon", lazy.LiveProcs())
	}
	lazy.Shutdown()

	if fmt.Sprint(lazyLog) != fmt.Sprint(eagerLog) {
		t.Errorf("service log\n  reactor: %v\n  daemon:  %v", lazyLog, eagerLog)
	}
	if strings.Join(lazyTrace, "\n") != strings.Join(eagerTrace, "\n") {
		t.Errorf("dispatch stream\n  reactor: %v\n  daemon:  %v", lazyTrace, eagerTrace)
	}
}

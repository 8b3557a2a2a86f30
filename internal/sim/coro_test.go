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
// obey exactly the run loop's selection rule (deadline, shard window, tie
// order), and spawn/teardown/failure must behave as they did when every
// process was a goroutine behind a channel pair. Shutdown of a parked
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

// nodeLog is what one node of runNodeWorld observed.
type nodeLog struct {
	Ticks []Time    // the ticker's wake times
	Recv  [][2]Time // (arrival time, value) at the sink
	Acks  []Time    // ack arrival times
}

// runNodeWorld runs four logical nodes on the given number of simulators
// (1 = one plain Simulator, else a ShardGroup with nodes spread evenly).
// Each node has a ticker process sleeping a period that is often longer
// than the lookahead — so its own wake regularly lies at or beyond the
// window end — and posting to the next node's sink every third tick; the
// sink acks one lookahead later. Node 0 ticks ten times longer than the
// rest, so for most of the run its shard is alone with an unbounded
// window that only its own Posts shrink. A ticker that consumed a wake
// beyond the live window end would move its clock past a pending ack,
// which then panics in scheduleEvent; short of that, any reordering
// shows in the logs.
//
// Ticker wakes fall on even nanoseconds and deliveries to sinks on odd
// ones, so the feedback from sink to ticker (the period stretches with
// the count received) never depends on how a same-instant tie between a
// merged and a local event is broken.
func runNodeWorld(t *testing.T, shards int) []nodeLog {
	t.Helper()
	const nodes = 4
	const L = 101 * Nanosecond
	sims := make([]*Simulator, shards)
	for i := range sims {
		sims[i] = New()
	}
	run, shutdown := sims[0].Run, sims[0].Shutdown
	if shards > 1 {
		g := NewShardGroup(L, sims...) // members must join before anything is scheduled
		run, shutdown = g.Run, g.Shutdown
	}
	defer shutdown()
	simOf := func(node int) *Simulator { return sims[node*shards/nodes] }
	logs := make([]nodeLog, nodes)
	inbox := make([]*Queue[Time], nodes)
	for n := range inbox {
		inbox[n] = NewQueue[Time](fmt.Sprintf("inbox%d", n))
	}
	for n := 0; n < nodes; n++ {
		s, next, log := simOf(n), (n+1)%nodes, &logs[n]
		received := 0
		s.GoDaemon(fmt.Sprintf("sink%d", n), func(p *Proc) {
			for {
				v := inbox[n].Pop(p)
				received++
				log.Recv = append(log.Recv, [2]Time{p.Now(), v})
			}
		})
		rounds := 30
		if n == 0 {
			rounds = 300
		}
		s.Go(fmt.Sprintf("ticker%d", n), func(p *Proc) {
			for i := 0; i < rounds; i++ {
				p.Sleep(Duration(40 + 60*((i+n)%6) + 2*(received%3)))
				log.Ticks = append(log.Ticks, p.Now())
				if i%3 == 0 {
					sent := p.Now()
					s.Post(simOf(next), L, func() {
						inbox[next].Push(sent)
						simOf(next).Post(s, L, func() { log.Acks = append(log.Acks, s.Now()) })
					})
				}
			}
		})
	}
	if err := run(); err != nil {
		t.Fatalf("%d shards: %v", shards, err)
	}
	return logs
}

func TestShardWindowBoundsOwnWake(t *testing.T) {
	mono := runNodeWorld(t, 1)
	if n := len(mono[0].Ticks); n != 300 || len(mono[1].Recv) != 100 || len(mono[0].Acks) != 100 {
		t.Fatalf("monolithic world incomplete: %d ticks, %d deliveries, %d acks", n, len(mono[1].Recv), len(mono[0].Acks))
	}
	for _, shards := range []int{2, 4} {
		if got := runNodeWorld(t, shards); !reflect.DeepEqual(got, mono) {
			t.Fatalf("%d shards diverged from the monolithic run:\n got %v\nwant %v", shards, got, mono)
		}
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
		c.Signal() // q's wake enters the ready FIFO first
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

// TestGoexitInShardedBodyFailsGroupRun: when the window ran on a worker
// goroutine, the Goexit ends that worker and the coordinator reports it.
func TestGoexitInShardedBodyFailsGroupRun(t *testing.T) {
	a, b := New(), New()
	g := NewShardGroup(100*Nanosecond, a, b)
	defer g.Shutdown()
	a.Go("steady", func(p *Proc) { p.Sleep(Microsecond) })
	b.Go("quitter", func(p *Proc) {
		p.Sleep(10 * Nanosecond) // both members are active in the first window
		runtime.Goexit()
	})
	if err := g.Run(); err == nil || !strings.Contains(err.Error(), `"quitter" called runtime.Goexit`) {
		t.Fatalf("ShardGroup.Run returned %v; want the Goexit failure", err)
	}
}

// TestStandingProcessEventsAllocateNothing: once processes exist, no
// kind of event allocates — a park that consumes its own wake inline
// (sleeper), a park that switches to another process and back (the
// ping-pong pair), or a timer callback. Every allocation
// BenchmarkSimEventThroughput reports is therefore per spawn.
func TestStandingProcessEventsAllocateNothing(t *testing.T) {
	s := New()
	defer s.Shutdown()
	ping, pong := NewQueue[int]("ping"), NewQueue[int]("pong")
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

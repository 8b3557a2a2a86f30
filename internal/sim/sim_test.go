package sim

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestEmptyRun(t *testing.T) {
	s := New()
	if err := s.Run(); err != nil {
		t.Fatalf("empty run: %v", err)
	}
	if s.Now() != 0 {
		t.Fatalf("clock moved on empty run: %v", s.Now())
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	s := New()
	var end Time
	s.Go("sleeper", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		p.Sleep(7 * Microsecond)
		end = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if want := Time(12 * Microsecond); end != want {
		t.Fatalf("end time = %v, want %v", end, want)
	}
}

func TestEventOrderingFIFOAtSameTime(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(3*Microsecond, func() { order = append(order, i) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("order[%d] = %d, want %d (full: %v)", i, got, i, order)
		}
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	s := New()
	var times []Time
	delays := []Duration{9, 1, 5, 3, 7, 2, 8, 4, 6, 0}
	for _, d := range delays {
		s.After(d*Microsecond, func() { times = append(times, s.Now()) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatalf("events out of order: %v", times)
		}
	}
	if len(times) != len(delays) {
		t.Fatalf("ran %d events, want %d", len(times), len(delays))
	}
}

func TestHeapPropertyRandomOrder(t *testing.T) {
	// Property: for any set of delays, events fire in nondecreasing time
	// order and same-time events fire in insertion order.
	f := func(raw []uint16) bool {
		s := New()
		type firing struct {
			t   Time
			idx int
		}
		var fired []firing
		for i, r := range raw {
			i := i
			s.After(Duration(r)*Nanosecond, func() {
				fired = append(fired, firing{s.Now(), i})
			})
		}
		if err := s.Run(); err != nil {
			return false
		}
		if len(fired) != len(raw) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].t < fired[i-1].t {
				return false
			}
			if fired[i].t == fired[i-1].t && fired[i].idx < fired[i-1].idx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOnlyOneProcRunsAtATime(t *testing.T) {
	// With many interleaved sleepers mutating a shared counter without
	// locks, determinism and -race cleanliness demonstrate the
	// single-execution guarantee.
	s := New()
	counter := 0
	trace := make([]int, 0, 300)
	for i := 0; i < 3; i++ {
		i := i
		s.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			for j := 0; j < 100; j++ {
				counter++
				trace = append(trace, i)
				p.Sleep(Duration(i+1) * Microsecond)
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if counter != 300 {
		t.Fatalf("counter = %d, want 300", counter)
	}
	if len(trace) != 300 {
		t.Fatalf("trace len = %d", len(trace))
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []string {
		s := New()
		var log []string
		q := NewQueue[int]("q")
		for i := 0; i < 4; i++ {
			i := i
			s.Go(fmt.Sprintf("prod%d", i), func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Sleep(Duration(i*3+j) * Microsecond)
					q.Push(i*100 + j)
				}
			})
		}
		for i := 0; i < 2; i++ {
			i := i
			s.Go(fmt.Sprintf("cons%d", i), func(p *Proc) {
				for j := 0; j < 10; j++ {
					v := q.Pop(p)
					log = append(log, fmt.Sprintf("c%d@%v:%d", i, p.Now(), v))
				}
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestDeadlockDetection(t *testing.T) {
	s := New()
	c := NewCond("never")
	s.Go("stuck", func(p *Proc) { c.Wait(p) })
	err := s.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	if !strings.Contains(err.Error(), "deadlock") || !strings.Contains(err.Error(), "stuck") {
		t.Fatalf("unhelpful deadlock error: %v", err)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	s := New()
	s.Go("boom", func(p *Proc) {
		p.Sleep(Microsecond)
		panic("kapow")
	})
	err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "kapow") {
		t.Fatalf("panic not propagated: %v", err)
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	s := New()
	reached := false
	s.Go("late", func(p *Proc) {
		p.Sleep(100 * Microsecond)
		reached = true
	})
	if err := s.RunUntil(Time(50 * Microsecond)); err != nil {
		t.Fatal(err)
	}
	if reached {
		t.Fatal("event past deadline executed")
	}
	if s.Now() != Time(50*Microsecond) {
		t.Fatalf("clock = %v, want 50us", s.Now())
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !reached {
		t.Fatal("event never ran after resuming")
	}
}

func TestGoAfterDelaysStart(t *testing.T) {
	s := New()
	var start Time
	s.GoAfter("delayed", 42*Microsecond, func(p *Proc) { start = p.Now() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if start != Time(42*Microsecond) {
		t.Fatalf("start = %v, want 42us", start)
	}
}

// TestCondBroadcastWakesFIFO: a broadcast puts its waiters on the ready
// FIFO in the order they parked, not the order they were spawned.
func TestCondBroadcastWakesFIFO(t *testing.T) {
	s := New()
	c := NewCond("c")
	var woke []string
	for i, name := range []string{"c", "b", "a"} {
		s.Go(name, func(p *Proc) {
			p.Sleep(Duration(3-i) * Microsecond) // park in the order a, b, c
			c.Wait(p)
			woke = append(woke, name)
		})
	}
	s.Go("broadcaster", func(p *Proc) {
		p.Sleep(10 * Microsecond) // let everyone park
		c.Broadcast()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(woke, ""); got != "abc" {
		t.Fatalf("wake order = %q, want abc", got)
	}
}

func TestCondBroadcast(t *testing.T) {
	s := New()
	c := NewCond("c")
	n := 0
	for i := 0; i < 5; i++ {
		s.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			c.Wait(p)
			n++
		})
	}
	s.Go("b", func(p *Proc) {
		p.Sleep(Microsecond)
		c.Broadcast()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("woke %d, want 5", n)
	}
}

func TestCompletionBeforeAndAfter(t *testing.T) {
	s := New()
	done := NewCompletion("done")
	var early, late Time
	s.Go("early", func(p *Proc) {
		done.Wait(p)
		early = p.Now()
	})
	s.Go("firer", func(p *Proc) {
		p.Sleep(10 * Microsecond)
		done.Complete()
		done.Complete() // idempotent
	})
	s.Go("late", func(p *Proc) {
		p.Sleep(20 * Microsecond)
		done.Wait(p) // already complete: returns immediately
		late = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if early != Time(10*Microsecond) {
		t.Fatalf("early woke at %v, want 10us", early)
	}
	if late != Time(20*Microsecond) {
		t.Fatalf("late woke at %v, want 20us", late)
	}
}

func TestQueueFIFOOrder(t *testing.T) {
	s := New()
	q := NewQueue[int]("q")
	var got []int
	s.Go("producer", func(p *Proc) {
		for i := 0; i < 50; i++ {
			q.Push(i)
			if i%7 == 0 {
				p.Sleep(Microsecond)
			}
		}
	})
	s.Go("consumer", func(p *Proc) {
		for i := 0; i < 50; i++ {
			got = append(got, q.Pop(p))
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d, want %d", i, v, i)
		}
	}
}

func TestQueueTryPop(t *testing.T) {
	s := New()
	q := NewQueue[string]("q")
	s.Go("p", func(p *Proc) {
		if _, ok := q.TryPop(); ok {
			t.Error("TryPop on empty queue succeeded")
		}
		q.Push("x")
		v, ok := q.TryPop()
		if !ok || v != "x" {
			t.Errorf("TryPop = %q, %v", v, ok)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestQueueManyConsumersFIFOWake(t *testing.T) {
	s := New()
	q := NewQueue[int]("q")
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		s.GoAfter(fmt.Sprintf("c%d", i), Duration(i)*Microsecond, func(p *Proc) {
			v := q.Pop(p)
			order = append(order, i*1000+v)
		})
	}
	s.GoAfter("p", 10*Microsecond, func(p *Proc) {
		for i := 0; i < 4; i++ {
			q.Push(i)
			p.Sleep(Microsecond)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1001, 2002, 3003} // consumer i receives item i
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestResourceBlocksAtCapacity(t *testing.T) {
	s := New()
	r := NewResource("r", 2)
	var acquired []Time
	for i := 0; i < 4; i++ {
		s.Go(fmt.Sprintf("u%d", i), func(p *Proc) {
			r.Acquire(p, 1)
			acquired = append(acquired, p.Now())
			p.Sleep(10 * Microsecond)
			r.Release(1)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(acquired) != 4 {
		t.Fatalf("acquired %d times", len(acquired))
	}
	// Two immediately, two after the first pair releases at t=10us.
	if acquired[0] != 0 || acquired[1] != 0 {
		t.Fatalf("first two should acquire at t=0: %v", acquired)
	}
	if acquired[2] != Time(10*Microsecond) || acquired[3] != Time(10*Microsecond) {
		t.Fatalf("last two should acquire at t=10us: %v", acquired)
	}
	if r.Free() != r.Capacity() {
		t.Fatalf("resource not fully released: free=%d cap=%d", r.Free(), r.Capacity())
	}
}

func TestResourceFIFONoStarvation(t *testing.T) {
	// A big request queued ahead of small ones must be served first even
	// though the small ones could proceed; FIFO fairness is part of the
	// determinism contract.
	s := New()
	r := NewResource("r", 4)
	var order []string
	s.Go("hog", func(p *Proc) {
		r.Acquire(p, 4)
		p.Sleep(10 * Microsecond)
		r.Release(4)
	})
	s.GoAfter("big", Microsecond, func(p *Proc) {
		r.Acquire(p, 3)
		order = append(order, "big")
		r.Release(3)
	})
	s.GoAfter("small", 2*Microsecond, func(p *Proc) {
		r.Acquire(p, 1)
		order = append(order, "small")
		r.Release(1)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "big" {
		t.Fatalf("order = %v, want [big small]", order)
	}
}

func TestResourcePropertyConservation(t *testing.T) {
	// Property: after any pattern of acquire/hold/release, free == capacity.
	f := func(holds []uint8) bool {
		s := New()
		r := NewResource("r", 3)
		for i, h := range holds {
			h := Duration(h)
			s.Go(fmt.Sprintf("u%d", i), func(p *Proc) {
				n := int64(1 + (h % 3))
				r.Acquire(p, n)
				p.Sleep(h * Microsecond)
				r.Release(n)
			})
		}
		if err := s.Run(); err != nil {
			return false
		}
		return r.Free() == r.Capacity()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMutexMutualExclusion(t *testing.T) {
	s := New()
	m := NewMutex("m")
	inside := 0
	maxInside := 0
	for i := 0; i < 8; i++ {
		s.Go(fmt.Sprintf("u%d", i), func(p *Proc) {
			for j := 0; j < 5; j++ {
				m.Lock(p)
				inside++
				if inside > maxInside {
					maxInside = inside
				}
				p.Sleep(Microsecond)
				inside--
				m.Unlock()
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInside != 1 {
		t.Fatalf("mutual exclusion violated: max inside = %d", maxInside)
	}
}

func TestBytesAt(t *testing.T) {
	cases := []struct {
		n    int
		rate float64
		want Duration
	}{
		{0, 1e9, 0},
		{1000, 1e9, Microsecond},
		{1 << 20, 0, 0},  // zero rate disables the cost
		{1 << 20, -5, 0}, // negative rate disables the cost
		{1e9, 1e9, Second},
	}
	for _, c := range cases {
		if got := BytesAt(c.n, c.rate); got != c.want {
			t.Errorf("BytesAt(%d, %g) = %v, want %v", c.n, c.rate, got, c.want)
		}
	}
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(0).Add(1500 * Nanosecond)
	if tm.Microseconds() != 1.5 {
		t.Errorf("Microseconds = %v", tm.Microseconds())
	}
	if d := tm.Sub(Time(500)); d != 1000 {
		t.Errorf("Sub = %v", d)
	}
	if Duration(2*Second).Seconds() != 2.0 {
		t.Errorf("Seconds failed")
	}
	if Microseconds(2.5) != 2500*Nanosecond {
		t.Errorf("Microseconds ctor = %v", Microseconds(2.5))
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	s.Go("p", func(p *Proc) { p.Sleep(10 * Microsecond) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.schedule(Time(5*Microsecond), func() {})
}

func TestNegativeAfterClampsToNow(t *testing.T) {
	s := New()
	ran := false
	s.Go("p", func(p *Proc) {
		p.Sleep(10 * Microsecond)
		s.After(-5*Microsecond, func() { ran = true })
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("negative-delay event did not run")
	}
}

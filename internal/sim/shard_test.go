package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// pingTrace records one cross-shard delivery: who got what, when.
type pingTrace struct {
	At  Time
	Dst int
	Hop int
}

// runPingWorld builds n members that bounce a token around the group:
// member i receives hop h at t, works locally for a member-dependent
// spell, then posts hop h+1 to member (i+1)%n one lookahead out. Local
// work is interleaved with same-shard events so windows hold a mix of
// local and merged activity. Each member logs deliveries privately; the
// combined log (in shard-major order) is the determinism witness.
func runPingWorld(t *testing.T, n, hops int) ([][]pingTrace, *ShardGroup) {
	t.Helper()
	const L = 100 * Nanosecond
	members := make([]*Simulator, n)
	for i := range members {
		members[i] = New()
	}
	g := NewShardGroup(L, members...)
	logs := make([][]pingTrace, n)

	var bounce func(dst, hop int) func()
	bounce = func(dst, hop int) func() {
		return func() {
			s := members[dst]
			logs[dst] = append(logs[dst], pingTrace{At: s.Now(), Dst: dst, Hop: hop})
			if hop >= hops {
				return
			}
			// Local same-shard churn before forwarding, so the merge
			// competes with resident events.
			s.After(Duration(10+dst), func() {})
			s.After(Duration(25+3*hop%17), func() {
				s.Post(members[(dst+1)%n], L+Duration(hop%7), bounce((dst+1)%n, hop+1))
			})
		}
	}
	members[0].After(0, bounce(0, 0))
	if err := g.Run(); err != nil {
		t.Fatalf("sharded ping world: %v", err)
	}
	return logs, g
}

// TestShardGroupDeterministic reruns the identical sharded world from
// fresh members, at several shard counts, and requires the delivery
// logs to match exactly and every member to rewind.
func TestShardGroupDeterministic(t *testing.T) {
	for _, n := range []int{2, 4} {
		ref, _ := runPingWorld(t, n, 200)
		again, g := runPingWorld(t, n, 200)
		if !reflect.DeepEqual(ref, again) {
			t.Fatalf("n=%d: two fresh runs diverged", n)
		}
		for _, m := range g.Members() {
			m.Reset()
		}
		if got := g.EventsExecuted(); got != 0 {
			t.Fatalf("n=%d: %d events survived Reset", n, got)
		}
		g.Shutdown()
	}
}

// TestShardGroupMatchesMonolithic runs the same logical token bounce on
// one unsharded simulator and requires the same delivery times in the
// same order.
func TestShardGroupMatchesMonolithic(t *testing.T) {
	const n, hops = 3, 120
	sharded, g := runPingWorld(t, n, hops)
	defer g.Shutdown()
	var flat []pingTrace
	for hop := 0; hop <= hops; hop++ {
		flat = append(flat, sharded[hop%n][hop/n])
	}

	s := New()
	var mono []pingTrace
	var bounce func(dst, hop int) func()
	bounce = func(dst, hop int) func() {
		return func() {
			mono = append(mono, pingTrace{At: s.Now(), Dst: dst, Hop: hop})
			if hop >= hops {
				return
			}
			s.After(Duration(10+dst), func() {})
			s.After(Duration(25+3*hop%17), func() {
				s.After(100*Nanosecond+Duration(hop%7), bounce((dst+1)%n, hop+1))
			})
		}
	}
	s.After(0, bounce(0, 0))
	if err := s.Run(); err != nil {
		t.Fatalf("monolithic ping world: %v", err)
	}
	if !reflect.DeepEqual(flat, mono) {
		t.Fatalf("sharded delivery log diverged from monolithic:\nsharded:    %v\nmonolithic: %v", flat, mono)
	}
}

// TestShardGroupSoloHorizon drives a world where only shard 0 has
// events for long stretches: the solo fast path must still deliver its
// posts (the dynamic horizon shrink), and replies must come back.
func TestShardGroupSoloHorizon(t *testing.T) {
	const L = 100 * Nanosecond
	a, b := New(), New()
	g := NewShardGroup(L, a, b)
	defer g.Shutdown()

	var got []Time
	a.Go("driver", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(Microseconds(50)) // run far ahead of idle shard 1
			echo := NewCompletion("echo")
			a.Post(b, L, func() {
				b.Post(a, L, func() {
					got = append(got, a.Now())
					echo.Complete()
				})
			})
			echo.Wait(p)
		}
	})
	if err := g.Run(); err != nil {
		t.Fatalf("solo-horizon world: %v", err)
	}
	if len(got) != 5 {
		t.Fatalf("got %d echoes, want 5", len(got))
	}
	for i, at := range got {
		want := Time(Duration(i+1) * (Microseconds(50) + 2*L))
		if at != want {
			t.Fatalf("echo %d at %v, want %v", i, at, want)
		}
	}
}

// TestShardGroupDeadlockReport requires the combined report to name the
// parked process on every member.
func TestShardGroupDeadlockReport(t *testing.T) {
	a, b := New(), New()
	g := NewShardGroup(Microseconds(1), a, b)
	defer g.Shutdown()
	a.Go("stuck-a", func(p *Proc) { NewCond("never-a").Wait(p) })
	b.Go("stuck-b", func(p *Proc) { NewCond("never-b").Wait(p) })
	err := g.Run()
	if err == nil {
		t.Fatal("want deadlock error")
	}
	for _, frag := range []string{"shard 0", "shard 1", "stuck-a", "stuck-b"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("deadlock report %q missing %q", err, frag)
		}
	}
	g.Shutdown()
	if err := g.Run(); err == nil || !strings.Contains(err.Error(), "Shutdown") {
		t.Fatalf("Run after Shutdown: %v", err)
	}
}

// TestShardGroupPostValidation checks the contract panics: lookahead
// violations and cross-group posts must fail loudly.
func TestShardGroupPostValidation(t *testing.T) {
	a, b := New(), New()
	g := NewShardGroup(Microseconds(1), a, b)
	defer g.Shutdown()
	mustPanic(t, "below the group lookahead", func() {
		a.Post(b, 10*Nanosecond, func() {})
	})
	loner := New()
	mustPanic(t, "do not share a shard group", func() {
		a.Post(loner, Microseconds(2), func() {})
	})
	mustPanic(t, "already belongs", func() {
		NewShardGroup(Microseconds(1), a, New())
	})
	if err := a.Run(); err == nil || !strings.Contains(err.Error(), "ShardGroup.Run") {
		t.Fatalf("direct Run on a member: %v", err)
	}
}

func mustPanic(t *testing.T, frag string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one mentioning %q", frag)
		}
		if !strings.Contains(fmt.Sprint(r), frag) {
			t.Fatalf("panic %v, want mention of %q", r, frag)
		}
	}()
	fn()
}

package sim

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Conservative parallel-DES sharding (PROTOCOL.md §14).
//
// A ShardGroup ties N sibling Simulators into one simulated world that
// executes across N goroutines. Each member owns a private event queue
// and advances inside a conservative safe-time window derived from the
// group's lookahead L — the minimum virtual latency of any cross-shard
// interaction (for the NTB fabrics, the cheapest operation that crosses
// a cable). Members never touch each other's state directly; a member
// that wants to affect another schedules the effect through Post, which
// lands in a per-(src,dst) mailbox and is merged into the destination's
// queue at the next window boundary in deterministic (t, src, seq)
// order. Correctness is the classic conservative-synchronisation
// argument: with m the global minimum next-event time, no event executed
// in the window [m, m+L) can create an effect earlier than m+L, so every
// member may execute its sub-m+L events without hearing from the others.
type ShardGroup struct {
	members   []*Simulator
	lookahead Duration

	// mail is the cross-shard mailbox matrix, indexed [src*n + dst].
	// During a window only src's worker appends to row src; the
	// coordinator drains every box between windows. The window barrier
	// (WaitGroup + channel handshake) orders those accesses, so the
	// boxes need no locks.
	mail    [][]post
	postSeq []uint64 // per-source issue counter; monotone for life — only the order within a source matters
	merged  []post   // merge scratch, empty between runs
	times   []Time   // per-member next-event scratch, rewritten every window

	// Persistent window workers, spawned on the first parallel window.
	// work[i] carries the window end; wg counts outstanding windows.
	work      []chan Time    // workers persist across runs
	wg        sync.WaitGroup // zero between windows by construction
	workersUp bool           // worker lifetime spans runs
	killed    bool           // Shutdown is terminal, like Simulator.killed
}

// post is one cross-shard effect awaiting merge: run fn on the
// destination member at time t. src and seq make the merge order — and
// therefore the destination's event sequence — deterministic.
type post struct {
	t   Time
	src int
	seq uint64
	fn  func()
}

// timeInf is the window bound of a shard running with no other shard
// active: effectively unbounded, shrunk dynamically by Post.
const timeInf = Time(1<<63 - 1)

// NewShardGroup joins the given simulators into one sharded world.
// lookahead is the conservative bound: no member may affect another in
// less than this much virtual time, and every Post must respect it. The
// members must be freshly built (time zero, never run, not already
// grouped); member order fixes shard indices and all merge tie-breaks.
func NewShardGroup(lookahead Duration, members ...*Simulator) *ShardGroup {
	if lookahead <= 0 {
		panic("sim: shard group needs a positive lookahead")
	}
	if len(members) < 2 {
		panic("sim: shard group needs at least two members")
	}
	g := &ShardGroup{
		members:   members,
		lookahead: lookahead,
		mail:      make([][]post, len(members)*len(members)),
		postSeq:   make([]uint64, len(members)),
		times:     make([]Time, len(members)),
		work:      make([]chan Time, len(members)),
	}
	for i, s := range members {
		if s.group != nil {
			panic("sim: simulator already belongs to a shard group")
		}
		if s.killed || s.running || s.now != 0 || s.seq != 0 {
			panic("sim: shard group member must be fresh")
		}
		s.group, s.shard = g, i
	}
	return g
}

// Members returns the member simulators in shard order.
func (g *ShardGroup) Members() []*Simulator { return g.members }

// Lookahead returns the group's conservative synchronisation bound.
func (g *ShardGroup) Lookahead() Duration { return g.lookahead }

// Group returns the shard group s belongs to, or nil.
func (s *Simulator) Group() *ShardGroup { return s.group }

// Shard returns s's index within its shard group (0 when ungrouped).
func (s *Simulator) Shard() int { return s.shard }

// Post schedules fn to run on dst's timeline d from now. When dst is s
// itself this is plain After; across members it is the only sanctioned
// cross-shard channel, and d must be at least the group lookahead — the
// promise the safe-window computation is built on. fn runs in dst's
// scheduler context under the usual After rules (no blocking).
func (s *Simulator) Post(dst *Simulator, d Duration, fn func()) {
	if dst == s {
		s.After(d, fn)
		return
	}
	g := s.group
	if g == nil || dst.group != g {
		panic("sim: Post between simulators that do not share a shard group")
	}
	if d < g.lookahead {
		panic(fmt.Sprintf("sim: Post %v ahead of now, below the group lookahead %v", d, g.lookahead))
	}
	t := s.now.Add(d)
	// A solo shard may be running far beyond the other members (their
	// queues were empty). The moment it seeds an event at t on another
	// member, that member can reply as early as t+L, so the poster's own
	// window must shrink to that horizon.
	if horizon := t.Add(g.lookahead); horizon < s.windowEnd {
		s.windowEnd = horizon
	}
	g.postSeq[s.shard]++
	box := &g.mail[s.shard*len(g.members)+dst.shard]
	*box = append(*box, post{t: t, src: s.shard, seq: g.postSeq[s.shard], fn: fn})
}

// mergeMail drains every mailbox into the destination queues. Posts for
// one destination are ordered by (t, src, seq) — a total order fixed by
// virtual time and issue order, independent of which goroutines ran the
// windows — so the destination assigns event sequence numbers
// deterministically.
func (g *ShardGroup) mergeMail() {
	n := len(g.members)
	for dst := 0; dst < n; dst++ {
		g.merged = g.merged[:0]
		for src := 0; src < n; src++ {
			box := &g.mail[src*n+dst]
			for i := range *box {
				g.merged = append(g.merged, (*box)[i])
				(*box)[i].fn = nil // release for GC
			}
			*box = (*box)[:0]
		}
		if len(g.merged) == 0 {
			continue
		}
		sort.Slice(g.merged, func(i, j int) bool {
			a, b := &g.merged[i], &g.merged[j]
			if a.t != b.t {
				return a.t < b.t
			}
			if a.src != b.src {
				return a.src < b.src
			}
			return a.seq < b.seq
		})
		d := g.members[dst]
		for i := range g.merged {
			p := &g.merged[i]
			// The safe-window invariant guarantees t > d.now here; let
			// scheduleEvent's own check catch any violation.
			d.scheduleEvent(p.t, event{fn: p.fn})
			p.fn = nil
		}
	}
}

// Run drives the sharded world to completion: merge mail, compute the
// safe window from the global minimum next-event time, execute every
// member that has events inside it (in parallel when more than one
// does), repeat. It returns the first member error (lowest shard index)
// if any process panicked, a combined deadlock report if processes
// remain parked with no pending events anywhere, and nil when every
// non-daemon process ran to completion.
func (g *ShardGroup) Run() error {
	if g.killed {
		return fmt.Errorf("sim: Run after Shutdown")
	}
	for {
		g.mergeMail()

		// Global minimum and second-minimum pending event times.
		m, m2 := timeInf, timeInf
		argmin := -1
		for i, s := range g.members {
			t, ok := s.nextTime()
			if !ok {
				g.times[i] = timeInf
				continue
			}
			g.times[i] = t
			if t < m {
				m2 = m
				m, argmin = t, i
			} else if t < m2 {
				m2 = t
			}
		}
		if argmin < 0 {
			return g.finish()
		}

		end := m.Add(g.lookahead)
		active := 0
		for _, t := range g.times {
			if t < end {
				active++
			}
		}
		if active == 1 {
			// Solo fast path: every other member's horizon is m2, so the
			// lone runnable shard may advance clear to m2+L inline on
			// this goroutine — no worker handoff. Post shrinks the bound
			// if the shard seeds events elsewhere along the way.
			soloEnd := timeInf
			if m2 < timeInf {
				soloEnd = m2.Add(g.lookahead)
			}
			g.members[argmin].runWindow(soloEnd) //nolint:errcheck — fatal is re-read below
		} else {
			g.runParallel(end)
		}
		for _, s := range g.members {
			if s.fatal != nil {
				return s.fatal
			}
		}
	}
}

// runParallel executes one safe window on every member with events
// inside it, each on its persistent worker goroutine, and waits for all
// of them. The WaitGroup handshake publishes every member's state (and
// its mailbox rows) back to the coordinator.
func (g *ShardGroup) runParallel(end Time) {
	if !g.workersUp {
		for i := range g.members {
			g.work[i] = make(chan Time, 1)
			go g.worker(i)
		}
		g.workersUp = true
	}
	for i := range g.members {
		if g.times[i] < end {
			g.wg.Add(1)
			g.work[i] <- end
		}
	}
	g.wg.Wait()
}

// worker is one member's persistent window executor. Done is deferred
// per window so that a body's runtime.Goexit, which ends this goroutine
// from inside runWindow, still releases the coordinator to read fatal.
func (g *ShardGroup) worker(i int) {
	s := g.members[i]
	for end := range g.work[i] {
		func() {
			defer g.wg.Done()
			s.runWindow(end) //nolint:errcheck — fatal is read by the coordinator
		}()
	}
}

// finish classifies an empty-queue group: complete, or deadlocked with
// a combined per-member report.
func (g *ShardGroup) finish() error {
	var reports []string
	for i, s := range g.members {
		if s.nondaemonProcs() > 0 {
			reports = append(reports, fmt.Sprintf("shard %d: %v", i, s.deadlockError()))
		}
	}
	if len(reports) > 0 {
		return fmt.Errorf("sim: sharded world deadlocked: %s", strings.Join(reports, "; "))
	}
	return nil
}

// EventsExecuted sums the members' dispatched-event counts — the same
// kernel-level cost measure Simulator.EventsExecuted reports for an
// unsharded world.
func (g *ShardGroup) EventsExecuted() uint64 {
	var n uint64
	for _, s := range g.members {
		n += s.EventsExecuted()
	}
	return n
}

// Shutdown stops the window workers and shuts every member down, in
// shard order. Like Simulator.Shutdown it is terminal and idempotent.
func (g *ShardGroup) Shutdown() {
	if !g.killed {
		g.killed = true
		if g.workersUp {
			for i := range g.work {
				close(g.work[i])
			}
			g.workersUp = false
		}
	}
	for _, s := range g.members {
		s.Shutdown()
	}
}

// Package simdet is the fixture for the simdet analyzer: wall-clock
// reads, global math/rand draws, and order-sensitive map iteration are
// flagged; seeded constructors and //ntblint:ordered waivers are not.
// A waiver simdet never matched, and an unknown directive name, are
// reported by the runner.
package simdet

import (
	"math/rand"
	"runtime"
	"time"
)

type sched struct{ out []int }

func (s *sched) schedule(n int) { s.out = append(s.out, n) }

func wallClock() int64 {
	return time.Now().UnixNano() // want "time.Now reads the wall clock"
}

func elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want "time.Since reads the wall clock"
}

func globalRand() int {
	return rand.Int() // want "rand.Int draws from the process-global source"
}

// seeded uses the sanctioned constructors; nothing here is flagged.
func seeded() *rand.Rand {
	return rand.New(rand.NewSource(7))
}

// privateDraw draws from a private generator; methods are fine.
func privateDraw(rng *rand.Rand) int {
	return rng.Intn(10)
}

func coreCount() int {
	return runtime.NumCPU() // want "runtime.NumCPU makes behaviour depend on the host's core count"
}

// policy is the one sanctioned shape for a core-count read: an
// explicitly waived parallelism-policy site.
func policy() int {
	//ntblint:cpupolicy — worker-count default, not simulation state
	return runtime.GOMAXPROCS(0)
}

func drain(s *sched, m map[string]int) {
	for _, v := range m {
		s.out = append(s.out, v) // want "append inside range over map"
	}
	//ntblint:ordered — the caller sorts s.out before anything observes it
	for _, v := range m {
		s.out = append(s.out, v)
	}
}

func scheduleAll(s *sched, m map[int]int) {
	for k := range m {
		s.schedule(k) // want "schedule schedules an event"
	}
}

// sortedKeys iterates a map without observable effects; not flagged.
func sortedKeys(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// sum carries an honored //ntblint:ordered — the range below really is
// over a map.
func sum(m map[string]int) int {
	total := 0
	//ntblint:ordered — commutative sum
	for _, v := range m {
		total += v
	}
	return total
}

// sliceWalk's waiver drifted: the loop it once excused is over a slice
// now.
func sliceWalk(s []int) int {
	total := 0
	//ntblint:ordered — drifted // want "unused //ntblint:ordered"
	for _, v := range s {
		total += v
	}
	return total
}

// fixedWorkers' policy waiver outlived the core-count read it excused.
func fixedWorkers() int {
	//ntblint:cpupolicy — drifted // want "unused //ntblint:cpupolicy"
	return 4
}

// typoed carries a directive name no analyzer knows.
func typoed() {
	//ntblint:frobnicate // want "unknown directive"
	_ = 3
}

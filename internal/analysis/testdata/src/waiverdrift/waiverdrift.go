// Package waiverdrift is the fixture for the waiverdrift analyzer:
// directives whose construct moved or vanished are flagged, directives
// still anchored to what their analyzer recognises are not, and
// unknown directive names are reported outright.
package waiverdrift

import "runtime"

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
	//ntblint:ordered — drifted // want "orphaned //ntblint:ordered"
	for _, v := range s {
		total += v
	}
	return total
}

// hot is allocation-free; the allocok inside anchors to its body.
//
//ntblint:allocfree
func hot(buf []byte) []byte {
	if cap(buf) == 0 {
		//ntblint:allocok — cold refill
		buf = make([]byte, 0, 16)
	}
	return buf
}

// notAllocFree was once //ntblint:allocfree; the doc directive is gone
// but the allocok inside lingered.
func notAllocFree() []int {
	//ntblint:allocok — drifted // want "orphaned //ntblint:allocok"
	return make([]int, 4)
}

// misplaced holds an allocfree directive in a body instead of a doc
// comment, where the analyzer never looks.
func misplaced() {
	//ntblint:allocfree // want "orphaned //ntblint:allocfree"
	_ = 2
}

// workers carries the honored core-count policy waiver.
func workers() int {
	//ntblint:cpupolicy — parallelism policy, not simulation state
	return runtime.GOMAXPROCS(0)
}

// typoed carries a directive name no analyzer knows.
func typoed() {
	//ntblint:frobnicate // want "unknown directive"
	_ = 3
}

// adapter carries an honored //ntblint:notlink on its declaration.
//
//ntblint:notlink — deliberate partial adapter
type adapter struct{ n int }

// withSnap keeps scratch out of snapshots; anchored by Snapshot below.
type withSnap struct {
	scratch []byte // snap: keep — rebuilt on demand
	n       int
}

func (w *withSnap) Snapshot() int { return w.n }

// noSnap has no Snapshot method for its annotation to talk to.
type noSnap struct {
	scratch []byte // snap: keep — drifted // want "orphaned `// snap: keep`"
}

// image is what imaged.Snapshot returns, so its restore annotation is
// anchored; stray is returned by no Snapshot at all.
type image struct {
	n    int
	cost int // restore: keep — a record about the capture
}

type imaged struct{ n int }

func (i *imaged) Snapshot() image { return image{n: i.n} }

type stray struct {
	cost int // restore: keep — drifted // want "orphaned `// restore: keep`"
}

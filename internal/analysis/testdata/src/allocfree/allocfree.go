// Package allocfree is the fixture for the allocfree analyzer: a
// function whose doc comment carries //ntblint:allocfree must not
// allocate, except at sites waived with //ntblint:allocok. Unannotated
// functions are never checked. An allocfree or allocok directive that
// the analyzer never matched is reported by the runner.
package allocfree

type node struct{ v int }

type ring struct {
	buf  []int
	pool []*node
}

// push appends to the retained backing array — the amortised self-append
// idiom is allowed.
//
//ntblint:allocfree
func (r *ring) push(v int) {
	r.buf = append(r.buf, v)
}

// grow allocates a fresh node on every call.
//
//ntblint:allocfree
func (r *ring) grow() *node {
	return new(node) // want "new allocates"
}

// refill allocates only on a pool miss, which is waived.
//
//ntblint:allocfree
func (r *ring) refill() *node {
	if last := len(r.pool) - 1; last >= 0 {
		n := r.pool[last]
		r.pool = r.pool[:last]
		return n
	}
	//ntblint:allocok — pool refill; amortised to zero in steady state
	return new(node)
}

// spill appends into a different slice, growing a new backing array.
//
//ntblint:allocfree
func (r *ring) spill(v int) []int {
	out := append(r.buf, v) // want "append"
	return out
}

// boom allocates only inside a panic, which is a cold terminal path.
//
//ntblint:allocfree
func (r *ring) boom(i int) int {
	if i < 0 {
		panic(&node{v: i})
	}
	return r.buf[i]
}

// unchecked carries no annotation, so it may allocate freely.
func unchecked() []int { return make([]int, 8) }

// hot is allocation-free; the allocok inside waives its cold refill.
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
	//ntblint:allocok — drifted // want "unused //ntblint:allocok"
	return make([]int, 4)
}

// reused stopped allocating, and its waiver now excuses nothing.
//
//ntblint:allocfree
func (r *ring) reused(v int) {
	//ntblint:allocok — drifted // want "unused //ntblint:allocok"
	r.buf = append(r.buf, v)
}

// misplaced holds an allocfree directive in a body instead of a doc
// comment, where the analyzer never looks.
func misplaced() {
	//ntblint:allocfree // want "unused //ntblint:allocfree"
	_ = 2
}

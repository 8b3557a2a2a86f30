// Package snapcheck is the fixture for the snapcheck analyzer: a type
// with a Snapshot method must account for every field — read it into the
// snapshot, assert on it, hand it to a capture helper, or annotate it
// `// snap: keep` — and its Restore must account for every field of the
// snapshot — read it, or annotate it `// restore: keep`. The dropped and
// unapplied fields below are the omissions the analyzer must catch: a
// restored world would resume with the recycled world's value instead of
// the captured one. A keep annotation that excuses nothing is reported.
package snapcheck

type clockSnap struct {
	now int64
	seq uint64
}

type clock struct {
	now     int64
	seq     uint64
	sched   string // snap: keep — construction-time identity, identical in every world
	dropped bool   // want "does not capture field dropped"
}

func (c *clock) Snapshot() clockSnap {
	return clockSnap{now: c.now, seq: c.seq}
}

// helperSnap delegates part of the capture to a sibling method, which
// snapcheck follows; asserting on a field is also consideration enough.
type helperSnap struct {
	pages   [][]byte
	written int
	live    int
}

func (h *helperSnap) Snapshot() [][]byte {
	h.assertIdle()
	return h.capturePages()
}

func (h *helperSnap) assertIdle() {
	if h.live != 0 {
		panic("snapshot of a busy helperSnap")
	}
}

func (h *helperSnap) capturePages() [][]byte {
	out := make([][]byte, 0, h.written)
	for _, p := range h.pages[:h.written] {
		out = append(out, p)
	}
	return out
}

// noSnap has no Snapshot method: snapcheck must leave it alone even
// though nothing reads its field.
type noSnap struct {
	ignored int
}

// taker has a Snapshot method with a parameter — not the niladic
// capture-shape the contract covers, so its fields are exempt.
type taker struct {
	skipped int
}

func (t *taker) Snapshot(deep bool) int { return 0 }

// portSnap is what port.Snapshot returns. events is a record about the
// capture, deliberately not applied; mask is captured but forgotten by
// Restore — the restore-side omission.
type portSnap struct {
	spads  []uint32
	db     uint16
	mask   uint16 // want "does not read field mask of the portSnap"
	events uint64 // restore: keep — what the capturing run cost, not state
}

type port struct {
	spads  []uint32
	db     uint16
	mask   uint16
	events uint64
	name   string // snap: keep — identity
}

func (p *port) Snapshot() *portSnap {
	return &portSnap{spads: append([]uint32(nil), p.spads...), db: p.db, mask: p.mask, events: p.events}
}

func (p *port) Restore(s *portSnap) {
	copy(p.spads, s.spads)
	p.applyDoorbell(s)
}

func (p *port) applyDoorbell(s *portSnap) { p.db = s.db }

// cursorSnap is fully applied by cursor.Restore; the seed markers bracket
// the line TestSnapcheckSeededOmission deletes.
type cursorSnap struct {
	next int
	seq  uint32
}

type cursor struct {
	next int
	seq  uint32
}

func (c *cursor) Snapshot() cursorSnap { return cursorSnap{next: c.next, seq: c.seq} }

func (c *cursor) Restore(s cursorSnap) {
	c.next = s.next
	// seed:restore-begin
	c.seq = s.seq
	// seed:restore-end
}

// counters is returned behind an interface and applied wholesale, which
// reads every field at once.
type counters struct{ hits, misses uint64 }

type link struct {
	stats counters
}

func (l *link) Snapshot() any    { return l.stats }
func (l *link) Restore(snap any) { l.stats = snap.(counters) }

// wrapped inherits Snapshot from the embedded link: the promoted method
// captures the embedded field and nothing else, so every field wrapped
// adds must say why it is not state.
type wrapped struct {
	link
	route  int // snap: keep — construction identity
	tokens int // want "does not capture field tokens"
}

// withSnap keeps scratch out of snapshots; honoured, since Snapshot
// below makes it a snapshot target.
type withSnap struct {
	scratch []byte // snap: keep — rebuilt on demand
	n       int
}

func (w *withSnap) Snapshot() int { return w.n }

// unsnapped has no Snapshot method for its annotation to talk to.
type unsnapped struct {
	scratch []byte // snap: keep — drifted // want "unused `// snap: keep`"
}

// image is what imaged.Snapshot returns, so its restore annotation is
// honoured; stray is returned by no Snapshot at all.
type image struct {
	n    int
	cost int // restore: keep — a record about the capture
}

type imaged struct{ n int }

func (i *imaged) Snapshot() image { return image{n: i.n} }

type stray struct {
	cost int // restore: keep — drifted // want "unused `// restore: keep`"
}

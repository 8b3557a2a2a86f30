// Package fabriccontract is the fixture for the fabriccontract
// analyzer: types implementing more than half of the Link contract
// must ship all of it, full implementers need a Stats that reports
// real state, Unplug must return the uniform error surface, and
// //ntblint:notlink waives a deliberate partial adapter.
package fabriccontract

// LinkStats mirrors fabric.LinkStats.
type LinkStats struct {
	Interrupts      uint64
	ChunksForwarded uint64
}

// Link is the fixture's backend contract (a trimmed fabric.Link).
type Link interface {
	Start()
	Send(b []byte) error
	Drain()
	Snapshot() any
	Restore(s any)
	AssertQuiescent()
	Stats() LinkStats
}

// goodLink implements the full contract with real Stats; only its
// Unplug — which drops the error surface — is flagged.
type goodLink struct {
	stats   LinkStats
	started bool
}

func (l *goodLink) Start()               { l.started = true }
func (l *goodLink) Send(b []byte) error  { l.stats.ChunksForwarded++; return nil }
func (l *goodLink) Drain()               {}
func (l *goodLink) Snapshot() any        { return l.stats }
func (l *goodLink) Restore(s any)        { l.stats = s.(LinkStats) }
func (l *goodLink) AssertQuiescent()     {}
func (l *goodLink) Stats() LinkStats     { return l.stats }
func (l *goodLink) Unplug()              { l.started = false } // want "Unplug must return error"

// halfLink ships six of the seven methods but forgot Restore — the
// snapshot half of the lifecycle without the replay half.
type halfLink struct { // want "missing Restore"
	stats LinkStats
}

func (l *halfLink) Start()           {}
func (l *halfLink) Send(b []byte) error { l.stats.ChunksForwarded++; return nil }
func (l *halfLink) Drain()           {}
func (l *halfLink) Snapshot() any    { return l.stats }
func (l *halfLink) AssertQuiescent() {}
func (l *halfLink) Stats() LinkStats { return l.stats }

// stubLink implements the full contract but its Stats reports a
// constant — the signature satisfied, the information missing. Its
// Unplug shows the correct error surface.
type stubLink struct {
	stats LinkStats
	up    bool
}

func (l *stubLink) Start()           { l.up = true }
func (l *stubLink) Send(b []byte) error { return nil }
func (l *stubLink) Drain()           {}
func (l *stubLink) Snapshot() any    { return l.stats }
func (l *stubLink) Restore(s any)    { l.stats = s.(LinkStats) }
func (l *stubLink) AssertQuiescent() {}
func (l *stubLink) Stats() LinkStats { return LinkStats{} } // want "never reads receiver state"
func (l *stubLink) Unplug() error    { l.up = false; return nil }

// traceAdapter wraps a link for tracing and deliberately forwards only
// part of the contract; the waiver keeps fabriccontract quiet.
//
//ntblint:notlink — deliberate partial adapter, never assigned to a Link
type traceAdapter struct {
	inner Link
	n     int
}

func (t *traceAdapter) Start()           { t.n++; t.inner.Start() }
func (t *traceAdapter) Send(b []byte) error { t.n++; return t.inner.Send(b) }
func (t *traceAdapter) Drain()           { t.n++; t.inner.Drain() }
func (t *traceAdapter) AssertQuiescent() { t.inner.AssertQuiescent() }
func (t *traceAdapter) Stats() LinkStats { return t.inner.Stats() }

// drainOnly shares two method names with the contract; far below the
// half-way mark, it makes no claim to be a backend and is ignored.
type drainOnly struct{ n int }

func (r *drainOnly) Drain() { r.n = 0 }
func (r *drainOnly) Start() {}

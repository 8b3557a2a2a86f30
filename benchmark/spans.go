package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one harness-side interval around a call into a layer: name,
// start, end, the span that caused it, and the id of the op it belongs
// to. Spans are recorded from the benchmark's own files only; spans
// inside the program are a later issue.
type span struct {
	name       string
	parent     int32 // index of the enclosing span, -1 at the root
	op         int64 // spans of one op share this id
	start, end int64 // host ns since the tracer's epoch
}

// tracer holds a run's spans in memory until the run ends. The zero
// state "off" records nothing, so call sites need no branches. The
// simulator runs one process at a time, and only PE 0's body and the
// harness's main goroutine open spans, so one stack suffices.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
	stack []int32
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under the innermost open one and returns its
// handle; -1 when the tracer is off.
func (t *tracer) begin(name string, op int64) int32 {
	if t == nil || !t.on {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, op: op, start: int64(time.Since(t.epoch))})
	t.stack = append(t.stack, i)
	return i
}

// end closes the span begin returned.
func (t *tracer) end(i int32) {
	if i < 0 {
		return
	}
	t.spans[i].end = int64(time.Since(t.epoch))
	t.stack = t.stack[:len(t.stack)-1]
}

// spanTotals is one span name's aggregate: calls, total duration, and
// self time — duration minus the part its child spans cover.
type spanTotals struct {
	name          string
	calls         int
	totalN, selfN int64
}

// selfTimes aggregates the recorded spans by name, largest self time
// first.
func (t *tracer) selfTimes() []spanTotals {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	byName := map[string]*spanTotals{}
	for i, s := range t.spans {
		st := byName[s.name]
		if st == nil {
			st = &spanTotals{name: s.name}
			byName[s.name] = st
		}
		st.calls++
		st.totalN += s.end - s.start
		st.selfN += s.end - s.start - child[i]
	}
	out := make([]spanTotals, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].selfN != out[j].selfN {
			return out[i].selfN > out[j].selfN
		}
		return out[i].name < out[j].name
	})
	return out
}

// chromeSpan is one complete ("X") event of the Chrome trace format.
type chromeSpan struct {
	Name string   `json:"name"`
	Ph   string   `json:"ph"`
	Ts   float64  `json:"ts"`  // µs
	Dur  float64  `json:"dur"` // µs
	Pid  int      `json:"pid"`
	Tid  int      `json:"tid"`
	Args spanArgs `json:"args"`
}

// spanArgs carries a span's identity: its own id, its parent's (-1 at
// the root) and the op all spans of one request share.
type spanArgs struct {
	ID     int   `json:"id"`
	Parent int32 `json:"parent"`
	Op     int64 `json:"op"`
}

// writeChrome writes the spans as Chrome trace JSON (chrome://tracing,
// Perfetto) to path, creating its directory.
func (t *tracer) writeChrome(path string) error {
	events := make([]chromeSpan, len(t.spans))
	for i, s := range t.spans {
		events[i] = chromeSpan{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Args: spanArgs{ID: i, Parent: s.parent, Op: s.op},
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	return nil
}

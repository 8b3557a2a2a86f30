// Package trace collects device-level events from the simulated fabric
// (DMA transfers, programmed I/O, doorbell rings and deliveries,
// scratchpad accesses) and renders them as per-port summaries or as a
// Chrome-trace JSON timeline (load chrome://tracing or Perfetto and drop
// the file in).
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/fabric"
	"repro/internal/ntb"
	"repro/internal/sim"
)

// Recorder accumulates trace events. Attach it to a cluster before
// running; it is not safe to mutate while the simulation executes except
// through the hook itself (which the kernel serialises).
type Recorder struct {
	events []ntb.TraceEvent
}

// New returns an empty recorder.
func New() *Recorder { return &Recorder{} }

// Hook returns the device hook to install with Port.SetTrace.
func (r *Recorder) Hook() ntb.TraceFunc {
	return func(e ntb.TraceEvent) { r.events = append(r.events, e) }
}

// Attach installs the recorder on every cabled port of the cluster:
// ring and pair sides, and the switch fabric's mesh ports. (The CXL
// fabric has no NTB port to record.)
func (r *Recorder) Attach(c *fabric.Cluster) {
	for _, h := range c.Hosts {
		for port := range h.Ports() {
			port.SetTrace(r.Hook())
		}
	}
}

// Events returns the recorded events in emission order.
func (r *Recorder) Events() []ntb.TraceEvent { return r.events }

// Len reports the number of recorded events.
func (r *Recorder) Len() int { return len(r.events) }

// Reset discards all recorded events.
func (r *Recorder) Reset() { r.events = r.events[:0] }

// PortSummary aggregates one port's activity.
type PortSummary struct {
	Port          string
	DMABytes      int64
	DMAXfers      int64
	DMABusy       sim.Duration
	PIOBytes      int64
	PIOXfers      int64
	DoorbellRings int64
	SpadAccesses  int64
}

// Summary aggregates the recording per port, sorted by port name.
func (r *Recorder) Summary() []PortSummary {
	byPort := map[string]*PortSummary{}
	get := func(port string) *PortSummary {
		s := byPort[port]
		if s == nil {
			s = &PortSummary{Port: port}
			byPort[port] = s
		}
		return s
	}
	for _, e := range r.events {
		s := get(e.Port)
		switch e.Cat {
		case "dma":
			s.DMABytes += int64(e.Bytes)
			s.DMAXfers++
			s.DMABusy += e.Dur
		case "pio":
			s.PIOBytes += int64(e.Bytes)
			s.PIOXfers++
		case "doorbell":
			if e.Name == "ring" {
				s.DoorbellRings++
			}
		case "spad":
			s.SpadAccesses++
		}
	}
	out := make([]PortSummary, 0, len(byPort))
	//ntblint:ordered — collection order is normalised by the sort below
	for _, s := range byPort {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Port < out[j].Port })
	return out
}

// Utilization returns a port's DMA engine busy fraction over [0, end].
func (r *Recorder) Utilization(port string, end sim.Time) float64 {
	if end <= 0 {
		return 0
	}
	var busy sim.Duration
	for _, e := range r.events {
		if e.Port == port && e.Cat == "dma" {
			busy += e.Dur
		}
	}
	return float64(busy) / float64(end)
}

// Table renders the summary as an aligned text table.
func (r *Recorder) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %12s %8s %12s %10s %8s %8s\n",
		"port", "dma-bytes", "xfers", "dma-busy", "pio-bytes", "rings", "spads")
	for _, s := range r.Summary() {
		fmt.Fprintf(&b, "%-12s %12d %8d %12s %10d %8d %8d\n",
			s.Port, s.DMABytes, s.DMAXfers, s.DMABusy, s.PIOBytes, s.DoorbellRings, s.SpadAccesses)
	}
	return b.String()
}

// chromeEvent is the Chrome trace-event JSON schema (subset).
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   string         `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChromeJSON serders the recording as a Chrome trace-event array.
// Durations become complete ("X") events; instants become "i" events.
func (r *Recorder) WriteChromeJSON(w io.Writer) error {
	out := make([]chromeEvent, 0, len(r.events))
	for _, e := range r.events {
		ce := chromeEvent{
			Name: e.Name,
			Cat:  e.Cat,
			TS:   e.T.Microseconds(),
			PID:  1,
			TID:  e.Port,
		}
		if e.Bytes > 0 {
			ce.Args = map[string]any{"bytes": e.Bytes}
		}
		if e.Dur > 0 {
			ce.Phase = "X"
			ce.Dur = e.Dur.Microseconds()
			// The duration event's timestamp is its start.
			ce.TS = (e.T - sim.Time(e.Dur)).Microseconds()
		} else {
			ce.Phase = "i"
		}
		out = append(out, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel provides a virtual clock, a time-ordered event queue, and
// coroutine processes. Each process runs on an iter.Pull coroutine, which
// passes to a later spawn once the body returns, and processes are
// strictly sequentialised: exactly one process (or the run loop) runs
// at any instant, and control transfers by direct coroutine switches, so
// simulations are deterministic and race-free by construction.
//
// All latencies and throughputs reported by this repository are measured
// in the kernel's virtual time, never in wall-clock time. This is what
// makes the reproduced figures stable across machines and runs.
package sim

import "fmt"

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time, in nanoseconds.
type Duration int64

// Common durations, mirroring time.Duration's constants.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from earlier to t.
func (t Time) Sub(earlier Time) Duration { return Duration(t - earlier) }

// Microseconds returns the time as a floating-point count of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / 1e3 }

// Seconds returns the time as a floating-point count of seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

func (t Time) String() string { return fmt.Sprintf("%.3fus", float64(t)/1e3) }

// Microseconds returns the duration as a floating-point count of microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / 1e3 }

// Seconds returns the duration as a floating-point count of seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e9 }

func (d Duration) String() string { return fmt.Sprintf("%.3fus", float64(d)/1e3) }

// Microseconds constructs a Duration from a floating-point microsecond count.
// Fractional nanoseconds are truncated.
func Microseconds(us float64) Duration { return Duration(us * 1e3) }

// BytesAt returns the time needed to move n bytes at rate bytesPerSecond.
// A zero or negative rate yields zero duration (infinite bandwidth), which
// callers use to disable a cost component.
func BytesAt(n int, bytesPerSecond float64) Duration {
	if bytesPerSecond <= 0 || n <= 0 {
		return 0
	}
	return Duration(float64(n) / bytesPerSecond * 1e9)
}

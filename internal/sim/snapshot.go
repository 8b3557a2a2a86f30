package sim

// Snapshot is a frozen image of a quiescent simulator: the virtual clock
// and the event sequence counter. Nothing else needs capture — at
// quiescence the event queue is empty by definition and parked daemon
// coroutines carry their own state, so "restoring" a simulator means
// positioning another quiescent kernel (whose daemons are parked in the
// same places) at the same (now, seq) point and letting the next run's
// events wake everything exactly as a continuation of the original
// would.
type Snapshot simState

// Now returns the virtual time at which the snapshot was captured.
func (sn Snapshot) Now() Time { return sn.now }

// Snapshot captures the kernel clock of a quiescent simulator: not
// running, not shut down, no captured panic, no live non-daemon
// processes, no pending events.
func (s *Simulator) Snapshot() Snapshot {
	s.assertQuiescent("Snapshot")
	return Snapshot(s.simState)
}

// Restore positions a quiescent simulator — whatever it ran before — at
// the snapshot's clock so the next run continues the captured world's
// future; the zero Snapshot is time zero, a just-built kernel. Parked
// daemon processes stay parked: they resume service when the next run's
// events wake them, so device engines and dispatchers remain installed.
// Everything else must have drained (see assertQuiescent). The event
// queue is rewound empty, keeping its backing arrays (it accepts pushes
// at any absolute time afterwards, so no event cloning is needed), and
// the per-run executed counter restarts. Restoring seq as well keeps
// same-timestamp tie-breaking — and therefore the dispatch trace —
// bit-identical to the world the snapshot was taken from continuing in
// place.
func (s *Simulator) Restore(sn Snapshot) {
	s.assertQuiescent("Restore")
	s.simState = simState(sn)
	s.executed = 0
	s.events.reset()
	s.ready = s.ready[:0]
	s.readyHead = 0
}

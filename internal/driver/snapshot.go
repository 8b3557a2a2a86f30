package driver

import "fmt"

// Channel snapshots. Capture and Restore assert the same quiescence (no
// ACKs queued, no credits outstanding — a clean run leaves nothing in
// flight) and cover the handful of per-run counters a world continues
// from: send tallies for the stop-and-wait channel, and the slot cursor
// / wire sequence / expected sequence for the pipelined pair — the slot
// contents themselves live in the NTB windows and are restored with
// them. The zero snapshot is the just-constructed state. Mutexes, ACK
// queues, credit pools and scratch buffers stay warm across a Restore.

// TxSnapshot captures a stop-and-wait channel's per-run state.
type TxSnapshot struct {
	sends uint64
}

func (tx *TxChannel) assertIdle(op string) {
	if n := tx.acks.Len(); n != 0 {
		panic(fmt.Sprintf("driver: %s of tx %s with %d unconsumed ACK(s)", op, tx.ep.Port.Name(), n))
	}
}

// Snapshot captures the channel state; the ACK queue must be drained.
func (tx *TxChannel) Snapshot() TxSnapshot {
	tx.assertIdle("snapshot")
	return TxSnapshot{sends: tx.sends}
}

// Restore brings the channel to the snapshot's state.
func (tx *TxChannel) Restore(s TxSnapshot) {
	tx.assertIdle("restore")
	tx.sends = s.sends
}

// PipeTxSnapshot captures a pipelined sender's cursor and counters.
type PipeTxSnapshot struct {
	nextSlot int
	seq      uint32
	sends    uint64
}

func (tx *PipeTx) assertIdle(op string) {
	if free := tx.credits.Free(); free != tx.credits.Capacity() {
		panic(fmt.Sprintf("driver: %s of pipe-tx %s with %d credit(s) outstanding",
			op, tx.ep.Port.Name(), tx.credits.Capacity()-free))
	}
}

// Snapshot captures the sender state; every credit must be free, i.e.
// all in-flight slots ACKed.
func (tx *PipeTx) Snapshot() PipeTxSnapshot {
	tx.assertIdle("snapshot")
	return PipeTxSnapshot{nextSlot: tx.nextSlot, seq: tx.seq, sends: tx.sends}
}

// Restore brings the sender to the snapshot's state. The wire sequence
// must continue from the captured value or the receiver — whose slot
// headers are restored with the NTB window contents — would discard
// every subsequent message as stale.
func (tx *PipeTx) Restore(s PipeTxSnapshot) {
	tx.assertIdle("restore")
	tx.nextSlot = s.nextSlot
	tx.seq = s.seq
	tx.sends = s.sends
}

// PipeRxSnapshot captures a pipelined receiver's in-order cursor.
type PipeRxSnapshot struct {
	expect uint32
}

// Snapshot captures the receiver state.
func (rx *PipeRx) Snapshot() PipeRxSnapshot { return PipeRxSnapshot{expect: rx.expect} }

// Restore brings the receiver's in-order cursor to the snapshot's.
func (rx *PipeRx) Restore(s PipeRxSnapshot) { rx.expect = s.expect }

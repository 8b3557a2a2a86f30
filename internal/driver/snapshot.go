package driver

import "fmt"

// Channel snapshots. Capture and Restore assert the same quiescence (no
// ACKs queued, no credits outstanding — a clean run leaves nothing in
// flight) and cover the handful of per-run counters a world continues
// from: send tallies for the stop-and-wait channel, and the slot cursor
// / wire sequence / expected sequence for the pipelined pair — the slot
// contents themselves live in the NTB windows and are restored with
// them. Each channel keeps that state in one embedded struct, its
// snapshot is a copy of the struct, and Restore assigns it back. The zero
// snapshot is the just-constructed state. Mutexes, ACK queues, credit
// pools and scratch buffers stay warm across a Restore.

// TxSnapshot captures a stop-and-wait channel's per-run state.
type TxSnapshot txState

func (tx *TxChannel) assertIdle(op string) {
	if n := tx.acks.Len(); n != 0 {
		panic(fmt.Sprintf("driver: %s of tx %s with %d unconsumed ACK(s)", op, tx.ep.Port.Name(), n))
	}
}

// Snapshot captures the channel state; the ACK queue must be drained.
func (tx *TxChannel) Snapshot() TxSnapshot {
	tx.assertIdle("snapshot")
	return TxSnapshot(tx.txState)
}

// Restore brings the channel to the snapshot's state.
func (tx *TxChannel) Restore(s TxSnapshot) {
	tx.assertIdle("restore")
	tx.txState = txState(s)
}

// PipeTxSnapshot captures a pipelined sender's cursor and counters.
type PipeTxSnapshot pipeTxState

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
	return PipeTxSnapshot(tx.pipeTxState)
}

// Restore brings the sender to the snapshot's state. The wire sequence
// must continue from the captured value or the receiver — whose slot
// headers are restored with the NTB window contents — would discard
// every subsequent message as stale.
func (tx *PipeTx) Restore(s PipeTxSnapshot) {
	tx.assertIdle("restore")
	tx.pipeTxState = pipeTxState(s)
}

// PipeRxSnapshot captures a pipelined receiver's in-order cursor.
type PipeRxSnapshot pipeRxState

// Snapshot captures the receiver state.
func (rx *PipeRx) Snapshot() PipeRxSnapshot { return PipeRxSnapshot(rx.pipeRxState) }

// Restore brings the receiver's in-order cursor to the snapshot's.
func (rx *PipeRx) Restore(s PipeRxSnapshot) { rx.pipeRxState = pipeRxState(s) }

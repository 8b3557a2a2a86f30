package driver

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

// sendSeq pushes n tagged two-byte messages through the rig's pipe and
// runs the simulation until they are all delivered.
func sendSeq(t *testing.T, pr *pipeRig, firstTag, n int) {
	t.Helper()
	pr.sim.Go("sender", func(p *sim.Proc) {
		for i := firstTag; i < firstTag+n; i++ {
			pr.tx.SendChunk(p, Info{Kind: KindPut, Dst: 1, Size: 2, Tag: uint32(i)},
				Payload{Buf: []byte{byte(i), byte(i >> 8)}, N: 2}, ModeDMA)
		}
	})
	if err := pr.sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPipeRestoreOverAdvancedCursorsEqualsRestoreOfFresh(t *testing.T) {
	const slots = 4
	// The captured point: three messages in, so the slot cursor, wire
	// sequence and expected sequence are all mid-cycle.
	src := newPipeRig(t, slots)
	sendSeq(t, src, 0, 3)
	txSnap, rxSnap, winSnap := src.tx.Snapshot(), src.rx.Snapshot(), src.b.Snapshot()

	// Restore is total: a pair whose cursors ran further and a fresh one
	// must come out identical and continue identically.
	advanced := newPipeRig(t, slots)
	sendSeq(t, advanced, 100, 9)
	if advanced.tx.pipeTxState == src.tx.pipeTxState || advanced.rx.pipeRxState == src.rx.pipeRxState {
		t.Fatal("test setup: the advanced pipe's state equals the captured one")
	}
	fresh := newPipeRig(t, slots)
	for _, pr := range []*pipeRig{advanced, fresh} {
		pr.tx.Restore(txSnap)
		pr.rx.Restore(rxSnap)
		pr.b.Restore(winSnap) // slot headers live in the window
		pr.got = nil
	}
	// The state structs whole: a field added to one is compared here too.
	for _, pr := range []*pipeRig{advanced, fresh} {
		if !reflect.DeepEqual(pr.tx.pipeTxState, src.tx.pipeTxState) || !reflect.DeepEqual(pr.rx.pipeRxState, src.rx.pipeRxState) {
			t.Fatalf("state after Restore %+v/%+v differs from the captured %+v/%+v",
				pr.tx.pipeTxState, pr.rx.pipeRxState, src.tx.pipeTxState, src.rx.pipeRxState)
		}
	}
	// The continuation: the receiver must accept the very next sequence
	// number — a stale cursor on either side drops or wedges messages.
	src.got = nil
	for _, pr := range []*pipeRig{src, advanced, fresh} {
		sendSeq(t, pr, 3, 6)
		if len(pr.got) != 6 {
			t.Fatalf("continuation delivered %d of 6 messages", len(pr.got))
		}
		for i, info := range pr.got {
			if info.Tag != uint32(3+i) {
				t.Fatalf("continuation message %d carries tag %d", i, info.Tag)
			}
		}
	}
	if advanced.tx.Sends() != src.tx.Sends() || fresh.tx.Sends() != src.tx.Sends() {
		t.Fatalf("send tallies: source %d, advanced %d, fresh %d", src.tx.Sends(), advanced.tx.Sends(), fresh.tx.Sends())
	}
}

func TestTxChannelRestoreIsTotal(t *testing.T) {
	r := newRig(t)
	var got []Info
	r.autoAck(t, &got, nil)
	send := func(n int) {
		r.sim.Go("sender", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				r.txAB.SendChunk(p, Info{Kind: KindPut, Dst: 1}, Payload{}, ModeDMA)
			}
		})
		if err := r.sim.Run(); err != nil {
			t.Fatal(err)
		}
	}
	send(2)
	snap := r.txAB.Snapshot()
	send(5)
	r.txAB.Restore(snap)
	if r.txAB.Sends() != 2 || r.txAB.txState != txState(snap) {
		t.Fatalf("restored channel state %+v, captured %+v", r.txAB.txState, snap)
	}
	r.txAB.Restore(TxSnapshot{})
	if r.txAB.txState != (txState{}) {
		t.Fatalf("zero snapshot left state %+v", r.txAB.txState)
	}
}

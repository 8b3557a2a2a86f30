package core

import (
	"reflect"
	"testing"

	"repro/internal/driver"
	"repro/internal/fabric"
	"repro/internal/mem"
	"repro/internal/ntb"
	"repro/internal/pcie"
	"repro/internal/sim"
)

// TestSnapshotStateFieldCounts holds the snapshot contract by structure.
// Every snapshot-bearing type keeps its per-run value state in one
// struct field that Snapshot copies and Restore assigns back whole, so a
// field added there is captured and restored with no other edit. What
// this test pins is the rest: how many fields sit outside that struct.
// A new field outside it changes the count and fails here, which forces
// the author to decide that it holds no per-run state (construction
// identity, an installed hook, a warm buffer, a queue drained at
// quiescence) or that it is a reference Snapshot and Restore must copy by
// name. The state struct itself must be a plain value: a pointer, slice,
// map or interface in it would be shared between a snapshot and every
// world forked from it.
func TestSnapshotStateFieldCounts(t *testing.T) {
	// The fabric's link types are unexported; take them from live worlds.
	linkOf := func(k fabric.Kind, n int) reflect.Type {
		w := newFabricWorld(k, n, Options{})
		defer w.Cluster.Sim.Shutdown()
		return reflect.TypeOf(w.pes[0].link).Elem()
	}
	ringLink := linkOf(fabric.KindNTBRing, 3)
	ntbService := ringLink.Field(0).Type

	for _, c := range []struct {
		typ     reflect.Type
		state   string // the field holding the per-run state; "" if the type has none of its own
		outside int
	}{
		{reflect.TypeFor[sim.Simulator](), "simState", 12},
		{reflect.TypeFor[pcie.Network](), "", 11},
		{reflect.TypeFor[ntb.Port](), "portState", 16},
		{reflect.TypeFor[mem.Heap](), "heapState", 5},
		{reflect.TypeFor[driver.TxChannel](), "txState", 4},
		{reflect.TypeFor[driver.PipeTx](), "pipeTxState", 7},
		{reflect.TypeFor[driver.PipeRx](), "pipeRxState", 3},
		{reflect.TypeFor[fabric.Cluster](), "", 6},
		{ntbService, "stats", 14},
		{ringLink, "", 7},
		{linkOf(fabric.KindNTBPair, 2), "", 5},
		{linkOf(fabric.KindPCIeSwitch, 3), "", 1},
		{linkOf(fabric.KindCXL, 3), "stats", 5},
		{reflect.TypeFor[World](), "", 5},
		{reflect.TypeFor[PE](), "peState", 13},
	} {
		outside := c.typ.NumField()
		if c.state != "" {
			f, ok := c.typ.FieldByName(c.state)
			if !ok || len(f.Index) != 1 || f.Type.Kind() != reflect.Struct {
				t.Errorf("%v: no struct field %s holding its per-run state", c.typ, c.state)
				continue
			}
			if ref := referenceIn(f.Type); ref != "" {
				t.Errorf("%v: state struct %s holds a reference (%s); copying it would share it between "+
					"a snapshot and its forks, so keep it outside and copy it by name in Snapshot and Restore",
					c.typ, f.Type, ref)
			}
			outside--
		}
		if outside != c.outside {
			where := "its state struct " + c.state
			if c.state == "" {
				where = "a value struct embedded in it, which Snapshot copies and Restore assigns back " +
					"(it has none today: its per-run state lives in the objects it holds)"
			}
			t.Errorf("%v has %d fields outside its per-run state, pinned at %d. Per-run state goes in %s, "+
				"and is then captured and restored with no other edit. A field that holds none (construction "+
				"identity, an installed hook, a warm buffer, a queue drained at quiescence) or a reference that "+
				"Snapshot and Restore copy by name stays outside: say which in its comment and update the pin here.",
				c.typ, outside, c.outside, where)
		}
	}
}

// referenceIn names the first field of a value type, searched through
// nested structs and arrays, whose copy would alias storage; "" if none.
func referenceIn(t reflect.Type) string {
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Chan, reflect.Func, reflect.Interface, reflect.UnsafePointer:
		return t.String()
	case reflect.Array:
		return referenceIn(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if ref := referenceIn(t.Field(i).Type); ref != "" {
				return t.Field(i).Name + " " + ref
			}
		}
	}
	return ""
}

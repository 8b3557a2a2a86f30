package bench

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/model"
)

func TestRunPointsPreservesOrder(t *testing.T) {
	points := make([]int, 100)
	for i := range points {
		points[i] = i
	}
	for _, par := range []int{1, 2, 8, 200} {
		got := RunPointsOrdered(par, points, nil, func(v int) int { return v * v })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("par=%d: result[%d] = %d, want %d", par, i, v, i*i)
			}
		}
	}
}

func TestRunPointsEmpty(t *testing.T) {
	if got := RunPointsOrdered(4, nil, nil, func(int) int { return 1 }); len(got) != 0 {
		t.Fatalf("empty points returned %v", got)
	}
}

func TestRunPointsPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("worker panic was swallowed")
		}
		if !strings.Contains(r.(string), "boom") {
			t.Fatalf("panic lost its payload: %v", r)
		}
	}()
	RunPointsOrdered(4, []int{0, 1, 2, 3, 4, 5, 6, 7}, nil, func(v int) int {
		if v == 3 {
			panic("boom")
		}
		return v
	})
}

// TestFig9DeterministicAcrossParallelism is the determinism regression
// gate for the parallel experiment engine: the same figure produced
// serially and with 8 workers must be identical to the last bit of every
// virtual-time value, because parallelism exists only across worlds and
// each world is a single-threaded deterministic simulation.
func TestFig9DeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("full Fig 9 grid twice in -short mode")
	}
	par := model.Default()
	defer SetParallelism(0)

	SetParallelism(1)
	serial := RunFig9(par)
	SetParallelism(8)
	parallel := RunFig9(par)

	if len(serial) != len(parallel) {
		t.Fatalf("figure count differs: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("%s differs between par=1 and par=8:\nserial:\n%s\nparallel:\n%s",
				serial[i].ID, serial[i].Table(), parallel[i].Table())
		}
	}
}

// TestFig10DeterministicAcrossParallelism covers the second figure shape
// (config-major sweep assembly) the same way.
func TestFig10DeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("Fig 10 twice in -short mode")
	}
	par := model.Default()
	defer SetParallelism(0)

	SetParallelism(1)
	serial := RunFig10(par)
	SetParallelism(8)
	parallel := RunFig10(par)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("Fig 10 differs between par=1 and par=8:\nserial:\n%s\nparallel:\n%s",
			serial.Table(), parallel.Table())
	}
}

func TestWorldCountAdvances(t *testing.T) {
	// Replay path: one point, one world. (The fork path may add a second
	// world for a cold prefix capture; its accounting has its own tests.)
	SetWorldFork(false)
	defer SetWorldFork(true)
	before := WorldsSimulated()
	MeasureBarrierLatency(model.Default(), 0, 2, 1)
	if after := WorldsSimulated(); after != before+1 {
		t.Fatalf("world count %d -> %d, want +1", before, after)
	}
}

func TestParallelismDefaultsAndOverride(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(5)
	if got := Parallelism(); got != 5 {
		t.Fatalf("Parallelism() = %d after SetParallelism(5)", got)
	}
	SetParallelism(0)
	if got := Parallelism(); got < 1 {
		t.Fatalf("default Parallelism() = %d, want >= 1", got)
	}
}

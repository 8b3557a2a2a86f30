# Build/verify entry points. `make race` is the gate that matters most
# since the experiment engine runs independent simulation worlds on
# concurrent workers.

GO ?= go

.PHONY: all build test race vet lint bench bench-smoke benchmark-smoke profile reproduce clean

all: build vet lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-check everything: the parallel experiment engine fans pooled
# simulation worlds out across concurrent workers, so the whole module
# rides under the detector, not just the packages it touches directly.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Project-specific static analysis (see LINT.md): determinism and
# annotated zero-alloc hot paths, plus every waiver its analyzer never
# matched. The seconds `make lint` takes are
# the compile of ntblint and the type-check load, not analysis.
lint:
	$(GO) run ./cmd/ntblint ./...

# Every go-test benchmark in the module: wall-clock, B/op, allocs/op.
bench:
	$(GO) test -run xxx -bench . -benchmem ./...

# One iteration of every benchmark: catches a benchmark that panics or
# no longer compiles without paying for timing runs. The ceilings that
# can fail (allocs/op, B/op) are TestBenchCeilings in each package, under
# `make test`; speed is `make benchmark-smoke` and `go run ./benchmark`.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# The repository benchmark (BENCHMARK.json, benchmark/README.md) as a
# smoke: its harness tests, then every workload both untraced and traced
# for one second each — every metric name printed, every simulated result
# checked.
benchmark-smoke:
	$(GO) test ./benchmark
	$(GO) run ./benchmark --seconds 1

# Profile ten full reproduce runs on one worker, each from a drained pool
# and snapshot cache (BenchmarkReproduce); one run is too short to sample
# per-figure costs. Inspect with `go tool pprof reproduce.test cpu.pprof`
# (or mem.pprof for the allocation profile).
profile:
	$(GO) test -run xxx -bench Reproduce -benchtime 10x -cpuprofile cpu.pprof -memprofile mem.pprof ./cmd/reproduce

# Regenerate the archived experiment output.
reproduce:
	$(GO) run ./cmd/reproduce > reproduce_output.txt

clean:
	$(GO) clean ./...
	rm -f cpu.pprof mem.pprof reproduce.test

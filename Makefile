# Build/verify entry points. `make race` is the gate that matters most
# since the experiment engine runs independent simulation worlds on
# concurrent workers.

GO ?= go

.PHONY: all build test race race-run vet lint bench bench-smoke benchmark-smoke profile reproduce clean

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

# A targeted race pass: `make race-run PATTERN='Fork|Snapshot' PKGS='./internal/mem
# ./internal/core' [RACEFLAGS=-count=2]`. It fails when the pattern
# selects no test in one of the packages, so renaming the tests a CI step
# exists for cannot turn that step into a silent no-op.
race-run:
	@for pkg in $(PKGS); do \
		$(GO) test -list '$(PATTERN)' $$pkg | grep -q '^Test' || \
			{ echo "race-run: -run '$(PATTERN)' selects no test in $$pkg" >&2; exit 1; }; \
	done
	$(GO) test -race $(RACEFLAGS) -run '$(PATTERN)' $(PKGS)

vet:
	$(GO) vet ./...

# Project-specific static analysis (see LINT.md): determinism, Snapshot/
# Restore completeness and annotated zero-alloc hot paths, plus every
# waiver its analyzer never matched. The seconds `make lint` takes are
# the compile of ntblint and the type-check load, not analysis.
lint:
	$(GO) run ./cmd/ntblint ./...

# Host-side simulator speed benchmarks (wall-clock, allocs/op).
bench:
	$(GO) test -run xxx -bench . -benchmem ./internal/pcie ./internal/driver ./internal/sim ./internal/core

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

# Profile a full reproduce run; inspect with `go tool pprof cpu.pprof`
# (or mem.pprof for the allocation profile).
profile:
	$(GO) run ./cmd/reproduce -cpuprofile cpu.pprof -memprofile mem.pprof > /dev/null

# Regenerate the archived experiment output.
reproduce:
	$(GO) run ./cmd/reproduce > reproduce_output.txt

clean:
	$(GO) clean ./...
	rm -f cpu.pprof mem.pprof

package bench

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/fabric"
)

// FlagSpec describes how one `reproduce` subcommand uses the flags they
// all share — -j, -fabric — so their registration, parsing, validation
// and error text live here once. What legitimately differs per
// subcommand is data.
type FlagSpec struct {
	NoWorkers bool // omit -j (a command that runs its worlds one at a time)
	// Fabric and FabricUsage are the -fabric default and help text.
	Fabric, FabricUsage string
	// FabricList makes -fabric a comma-separated list of backends to
	// compare rather than the one backend every world is built over; the
	// command's own worlds then stay on the ring.
	FabricList bool
	// PairNeeds, when non-empty, rejects the two-host ntb-pair fabric and
	// says why ("Fig 9 sweeps a 3-host world").
	PairNeeds string
	// Select makes Apply install the parsed backend for subsequent
	// sweeps (SetFabric). Commands that branch on the kind themselves
	// leave it off.
	Select bool
}

// Flags holds the shared flags' values; Kinds (the parsed -fabric value:
// one backend, or the list under FlagSpec.FabricList) is valid after
// Apply.
type Flags struct {
	spec    FlagSpec
	workers int
	fabrics string
	Kinds   []fabric.Kind
}

// RegisterFlags registers the shared flags on fs as spec describes. Call
// Apply after fs has been parsed.
func RegisterFlags(fs *flag.FlagSet, spec FlagSpec) *Flags {
	f := &Flags{spec: spec}
	if !spec.NoWorkers {
		fs.IntVar(&f.workers, "j", Parallelism(), "worker count: independent simulation worlds run in parallel")
	}
	fs.StringVar(&f.fabrics, "fabric", spec.Fabric, spec.FabricUsage)
	return f
}

// Kind returns the single parsed backend.
func (f *Flags) Kind() fabric.Kind { return f.Kinds[0] }

// Apply validates the parsed values and installs them as the bench
// policy (SetParallelism and, under FlagSpec.Select, SetFabric). A bad
// value is a usage error for the command to report.
func (f *Flags) Apply() error {
	toks := []string{f.fabrics}
	if f.spec.FabricList {
		toks = splitList(f.fabrics)
		if len(toks) == 0 {
			return fmt.Errorf("-fabric: empty backend list")
		}
	}
	f.Kinds = f.Kinds[:0]
	for _, tok := range toks {
		k, err := fabric.ParseKind(tok)
		if err != nil {
			return fmt.Errorf("-fabric: %w", err)
		}
		if k == fabric.KindNTBPair && f.spec.PairNeeds != "" {
			return fmt.Errorf("-fabric=%s: %s; the pair fabric joins exactly 2", k, f.spec.PairNeeds)
		}
		f.Kinds = append(f.Kinds, k)
	}
	if !f.spec.NoWorkers {
		SetParallelism(f.workers)
	}
	if f.spec.Select {
		SetFabric(f.Kinds[0])
	}
	return nil
}

// CheckHostCount is the one range check every cluster-size flag goes
// through: n must be something the fabric backend will build (the pair
// fabric joins exactly 2) — a flag error here instead of a mid-sweep
// panic.
func CheckHostCount(flagName string, n int, kind fabric.Kind) error {
	if max := fabric.MaxHostsFor(kind); n < 2 || n > max {
		return fmt.Errorf("-%s: cluster size %d out of range [2, %d] for the %s fabric", flagName, n, max, kind)
	}
	return nil
}

// ParseHostCounts parses a comma-separated sweep axis of cluster sizes
// (the value of the named flag), each checked by CheckHostCount.
func ParseHostCounts(flagName, list string, kind fabric.Kind) ([]int, error) {
	var sizes []int
	for _, tok := range splitList(list) {
		n, err := strconv.Atoi(tok)
		if err != nil {
			return nil, fmt.Errorf("-%s: %q is not a cluster size", flagName, tok)
		}
		if err := CheckHostCount(flagName, n, kind); err != nil {
			return nil, err
		}
		sizes = append(sizes, n)
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("-%s: empty sweep", flagName)
	}
	return sizes, nil
}

// splitList splits a comma-separated flag value, tolerating spaces and
// empty items.
func splitList(s string) []string {
	return strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ' ' })
}

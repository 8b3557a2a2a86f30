// Command reproduce is the one experiment binary. With no subcommand it
// regenerates every figure of the paper's evaluation plus this
// repository's ablation studies, in the order the paper presents them;
// its stdout is reproduce_output.txt, the raw material of EXPERIMENTS.md.
// A subcommand runs one experiment with that experiment's own knobs.
//
// Usage:
//
//	reproduce       [-skip-ablations] [-csv] [-outdir DIR] [-params FILE] [-j N]
//	                [-fabric ntb-ring,pcie-switch,cxl] [-cpuprofile FILE] [-memprofile FILE]
//	reproduce fig8  [-hosts N] [-gen G] [-lanes L] [-fabric KIND] [-csv] [-j N]
//	reproduce fig9  [-op put|get|both] [-metric latency|throughput|both]
//	                [-profile NAME] [-fabric KIND] [-csv] [-j N]
//	reproduce fig10 [-ablation] [-fabric KIND] [-csv] [-j N]
//	reproduce apps  [-kernel heat1d|matmul|intsort|all] [-hosts N] [-cells N] [-steps N]
//	                [-dim N] [-keys N] [-profile NAME] [-fabric KIND] [-j N]
//	reproduce scale [-pes 3,16,64,256,1024] [-reps N] [-put-bytes N] [-fabric KIND]
//	reproduce trace [-workload put|get|barrier|mix|allpairs] [-hosts N] [-size BYTES] [-out FILE]
//	reproduce params [-profile NAME] [-dump FILE]
//
// trace shows where one traced world's virtual time went, and params
// describes a platform profile; neither takes -j or -fabric.
//
// Everything a figure reports is virtual time and goes to stdout, which
// is byte-identical at any -j. What the run cost the host — worker count,
// wall clock, pool and fork tallies — goes to stderr. A bad flag value
// is a one-line usage error and exit status 2, as from flag.Parse.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/bench"
	"repro/internal/model"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

var subcommands = map[string]func(args []string, stdout, stderr io.Writer) int{
	"fig8":   fig8,
	"fig9":   fig9,
	"fig10":  fig10,
	"apps":   apps,
	"scale":  scale,
	"trace":  traceWorkload,
	"params": params,
}

// run is the whole command: it dispatches on the subcommand (none means
// the full figure list) and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return figures(args, stdout, stderr)
	}
	sub, ok := subcommands[args[0]]
	if !ok {
		fmt.Fprintf(stderr, "reproduce: unknown subcommand %q: want fig8, fig9, fig10, apps, scale, trace or params, or none for every figure\n", args[0])
		return 2
	}
	return sub(args[1:], stdout, stderr)
}

// cli is what the subcommands share: a flag set carrying the bench
// package's common flags, the writers, error reporting under the
// subcommand's name, -csv figure output and the platform profile.
type cli struct {
	*flag.FlagSet  // named "reproduce fig8", which prefixes every error
	stdout, stderr io.Writer
	shared         *bench.Flags // nil for a subcommand that takes none of them
	csv            bool
	profile        *string       // -profile, for the subcommands that take it
	par            *model.Params // the platform after parse
}

// newCLI registers the shared flags as spec describes; a nil spec
// registers none.
func newCLI(sub, about string, stdout, stderr io.Writer, spec *bench.FlagSpec) *cli {
	name := strings.TrimSpace("reproduce " + sub)
	c := &cli{FlagSet: flag.NewFlagSet(name, flag.ContinueOnError), stdout: stdout, stderr: stderr}
	c.SetOutput(stderr)
	c.Usage = func() {
		fmt.Fprintf(stderr, "usage: %s [flags]\n%s\n", name, about)
		c.PrintDefaults()
	}
	if spec != nil {
		c.shared = bench.RegisterFlags(c.FlagSet, *spec)
	}
	return c
}

func (c *cli) csvFlag() { c.BoolVar(&c.csv, "csv", false, "emit CSV instead of tables") }

func (c *cli) profileFlag() {
	c.profile = c.String("profile", "gen3x8", "platform profile: "+strings.Join(model.Names(), ", "))
}

// parse parses args, installs the shared flags as the bench policy and
// resolves the platform profile. When ok is false the subcommand returns
// code: 2 for a bad flag, 0 for -h.
func (c *cli) parse(args []string) (code int, ok bool) {
	switch err := c.Parse(args); {
	case errors.Is(err, flag.ErrHelp):
		return 0, false
	case err != nil:
		return 2, false // the flag package has reported it
	case c.NArg() > 0:
		return c.fail(2, fmt.Errorf("unexpected argument %q (flags follow the subcommand)", c.Arg(0))), false
	}
	if c.shared != nil {
		if err := c.shared.Apply(); err != nil {
			return c.fail(2, err), false
		}
	}
	c.par = model.Default()
	if c.profile != nil {
		par, err := model.Profile(*c.profile)
		if err != nil {
			return c.fail(2, fmt.Errorf("-profile: %w", err)), false
		}
		c.par = par
	}
	return 0, true
}

// fail reports err on one line under the subcommand's name and returns
// code: 2 for a usage error, 1 for a run that failed.
func (c *cli) fail(code int, err error) int {
	fmt.Fprintf(c.stderr, "%s: %v\n", c.Name(), err)
	return code
}

func (c *cli) emit(f *bench.Figure) {
	if c.csv {
		fmt.Fprint(c.stdout, f.CSV())
	} else {
		fmt.Fprintln(c.stdout, f.Table())
	}
}

// positive rejects a value below 1 on any of the named int flags: every
// one of them sizes an allocation or a loop the simulated program trusts.
func (c *cli) positive(names ...string) error {
	for _, name := range names {
		if v := c.Lookup(name).Value.(flag.Getter).Get().(int); v < 1 {
			return fmt.Errorf("-%s=%d: need a positive value", name, v)
		}
	}
	return nil
}

// fitsHeap rejects a payload flag whose value would not fit one symmetric
// allocation beside the runtime's own: the heap less one growth chunk.
func (c *cli) fitsHeap(name string, v int) error {
	if room := c.par.SymHeapMax - c.par.SymHeapChunk; v > room {
		return fmt.Errorf("-%s=%d: the payload must fit the symmetric heap, at most %d bytes", name, v, room)
	}
	return nil
}

func oneOf(name, value string, choices ...string) error {
	if !slices.Contains(choices, value) {
		return fmt.Errorf("-%s=%q: want %s", name, value, strings.Join(choices, ", "))
	}
	return nil
}

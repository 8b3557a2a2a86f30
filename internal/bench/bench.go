// Package bench is the experiment harness: for every figure in the
// paper's evaluation (Fig 8: raw NTB transfer rates, Fig 9: OpenSHMEM
// Put/Get latency and throughput, Fig 10: barrier latency) it builds the
// matching workload on the simulated platform and emits the same series
// the paper plots, plus the ablation studies DESIGN.md calls out.
package bench

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// Sizes returns the paper's request-size sweep: 1 KiB to 512 KiB in
// powers of two.
func Sizes() []int {
	out := make([]int, 0, 10)
	for s := 1 << 10; s <= 512<<10; s <<= 1 {
		out = append(out, s)
	}
	return out
}

// SizeLabel formats a byte count the way the paper's axes do.
func SizeLabel(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// dstBufs recycles the host buffers figure points get and receive into.
// An op overwrites a destination before anything reads it, so a reused
// buffer carries no simulation state. Never take a put source from here:
// stale bytes would turn a zero put into a data put; puts send mem.Zeros.
var dstBufs sync.Pool // of *[]byte

// borrowDst returns an n-byte destination buffer for one point; give it
// back with returnDst once the point's world has run.
func borrowDst(n int) []byte {
	if b, ok := dstBufs.Get().(*[]byte); ok && cap(*b) >= n {
		return (*b)[:n]
	}
	return make([]byte, n)
}

func returnDst(b []byte) { dstBufs.Put(&b) }

// Point is one measurement: Value at request size Size (or at parameter
// X for non-size sweeps).
type Point struct {
	Size  int
	Value float64
}

// Series is one labelled curve of a figure.
type Series struct {
	Label  string
	Points []Point
}

// Figure is a reproduced table/figure: an identifier matching the paper,
// a set of series over a common sweep, and the measured unit.
type Figure struct {
	ID     string // e.g. "Fig 9(a)"
	Title  string
	XLabel string
	Unit   string         // e.g. "us", "MB/s"
	XNames map[int]string // optional display names for sweep values
	Series []Series
}

// sizeAxis reports whether the figure's sweep axis is byte-size-like;
// hoisted out of the per-row loops so rendering does not re-lowercase
// the axis label for every row.
func (f *Figure) sizeAxis() bool {
	return strings.Contains(strings.ToLower(f.XLabel), "size")
}

// xLabel formats a sweep value; size-like sweeps use KB/MB labels, and
// XNames overrides everything.
func (f *Figure) xLabel(v int, sizeAxis bool) string {
	if name, ok := f.XNames[v]; ok {
		return name
	}
	if sizeAxis {
		return SizeLabel(v)
	}
	return strconv.Itoa(v)
}

// Table renders the figure as an aligned text table, one row per sweep
// value and one column per series — the form EXPERIMENTS.md embeds.
func (f *Figure) Table() string {
	var b strings.Builder
	if len(f.Series) > 0 {
		b.Grow((len(f.Series[0].Points) + 2) * (11 + 17*len(f.Series)))
	}
	fmt.Fprintf(&b, "%s — %s (%s)\n", f.ID, f.Title, f.Unit)
	// Header.
	fmt.Fprintf(&b, "%-10s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %16s", s.Label)
	}
	b.WriteByte('\n')
	if len(f.Series) == 0 {
		return b.String()
	}
	sizeAxis := f.sizeAxis()
	for i, pt := range f.Series[0].Points {
		fmt.Fprintf(&b, "%-10s", f.xLabel(pt.Size, sizeAxis))
		for _, s := range f.Series {
			fmt.Fprintf(&b, " %16.2f", s.Points[i].Value)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the figure as comma-separated values with a header row.
func (f *Figure) CSV() string {
	var b strings.Builder
	if len(f.Series) > 0 {
		b.Grow((len(f.Series[0].Points) + 1) * (8 + 12*len(f.Series)))
	}
	b.WriteString(f.XLabel)
	for _, s := range f.Series {
		b.WriteByte(',')
		b.WriteString(s.Label)
	}
	b.WriteByte('\n')
	if len(f.Series) == 0 {
		return b.String()
	}
	for i, pt := range f.Series[0].Points {
		b.WriteString(strconv.Itoa(pt.Size))
		for _, s := range f.Series {
			b.WriteByte(',')
			b.WriteString(strconv.FormatFloat(s.Points[i].Value, 'g', -1, 64))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSVFileName maps a figure ID to the file name cmd/reproduce archives
// its CSV under in results/ (e.g. "Fig 9 (DMA)" → "fig9_dma.csv"). The
// golden regression test resolves checked-in files with the same rule,
// so the mapping must stay in one place.
func CSVFileName(id string) string {
	return strings.ToLower(strings.NewReplacer(" ", "", "(", "_", ")", "").Replace(id)) + ".csv"
}

// SeriesByLabel returns the series with the given label, or nil.
func (f *Figure) SeriesByLabel(label string) *Series {
	for i := range f.Series {
		if f.Series[i].Label == label {
			return &f.Series[i]
		}
	}
	return nil
}

// At returns the series value at sweep value x (exact match), or an
// error if absent — used by the shape checks in tests and EXPERIMENTS.
func (s *Series) At(x int) (float64, error) {
	for _, pt := range s.Points {
		if pt.Size == x {
			return pt.Value, nil
		}
	}
	return 0, fmt.Errorf("bench: series %q has no point at %d", s.Label, x)
}

// MBps converts (bytes, duration-in-ns) to the paper's MB/s unit
// (decimal megabytes, as PLX and the paper use).
func MBps(bytes int64, ns int64) float64 {
	if ns <= 0 {
		return 0
	}
	return float64(bytes) / (float64(ns) / 1e9) / 1e6
}

package bench

import "math/rand"

// Workload data generation must be deterministic and independent of the
// host: every generator is derived here from fixed base seeds, never
// from the process-global math/rand source (whose use the simdet
// analyzer forbids in this package). Centralising the derivation keeps
// the seeding policy in one place and greppable.
//
// The seed values are frozen: they reproduce the exact matrix and key
// streams of the published results, so results/*.csv stay
// byte-identical across refactors.

// Base seeds for the application kernels' data generation.
const (
	// matmulSeed seeds AppMatmul's matrix entries (one stream, drawn
	// host-side before the world runs).
	matmulSeed int64 = 99
	// intsortStride spaces AppIntSort's per-PE key streams: PE me draws
	// from seed me*intsortStride, so streams are disjoint per PE and
	// independent of execution order.
	intsortStride int64 = 31
)

// SeededRNG returns a private deterministic generator for the given
// seed. It is the only sanctioned way to obtain randomness in workload
// code.
func SeededRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// peRNG returns PE me's private generator for a kernel whose streams
// are spaced by stride. The data a PE generates is identical at any
// worker count or PE interleaving.
func peRNG(stride int64, me int) *rand.Rand { return SeededRNG(stride * int64(me)) }

package core

import (
	"unsafe"

	"repro/internal/sim"
)

// Scalar is the set of element types the typed put/get layer moves; it
// matches the OpenSHMEM standard RMA type table's fixed-width members.
type Scalar interface {
	int32 | int64 | uint32 | uint64 | float32 | float64
}

// sizeOf returns the wire size of T in bytes.
func sizeOf[T Scalar]() int {
	var v T
	switch any(v).(type) {
	case int32, uint32, float32:
		return 4
	default:
		return 8
	}
}

// bytesOf views a typed slice as its bytes, in the host's byte order,
// which the runtime's own words share (native): a typed op hands
// PutBytes, GetBytes and the heap the caller's memory rather than a
// marshalled copy, as on real hardware, where both sides share the
// layout. This is the repository's only use of unsafe. It is safe
// because every op that takes a view is blocking: PutBytes returns once
// the source is reusable and GetBytes once the destination is filled,
// and neither retains its slice, so no view outlives its call. Scalar
// holds only fixed-width numbers, whose bytes are all value bits.
func bytesOf[T Scalar](s []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*sizeOf[T]())
}

// Put is the typed shmem_TYPE_put: copy src into target's symmetric
// object at dst. No conversion happens (see bytesOf), so the typed face
// costs what PutBytes of the same bytes costs.
func Put[T Scalar](p *sim.Proc, pe *PE, target int, dst SymAddr, src []T) {
	pe.PutBytes(p, target, dst, bytesOf(src))
}

// Get is the typed shmem_TYPE_get: copy target's symmetric object at src
// into dst.
func Get[T Scalar](p *sim.Proc, pe *PE, target int, src SymAddr, dst []T) {
	pe.GetBytes(p, target, src, bytesOf(dst))
}

// PutScalar puts a single element (shmem_TYPE_p).
func PutScalar[T Scalar](p *sim.Proc, pe *PE, target int, dst SymAddr, v T) {
	Put(p, pe, target, dst, []T{v})
}

// GetScalar gets a single element (shmem_TYPE_g).
func GetScalar[T Scalar](p *sim.Proc, pe *PE, target int, src SymAddr) T {
	var out [1]T
	Get(p, pe, target, src, out[:])
	return out[0]
}

// IPut is the strided put (shmem_TYPE_iput): for i in [0, nelems),
// src[i*sst] lands at symmetric element index i*tst from dst. Strides
// are in elements and must be >= 1.
func IPut[T Scalar](p *sim.Proc, pe *PE, target int, dst SymAddr, src []T, tst, sst, nelems int) {
	if tst < 1 || sst < 1 {
		panic("core: strides must be >= 1")
	}
	if nelems > 0 && (nelems-1)*sst >= len(src) {
		panic("core: iput source stride walks past the slice")
	}
	es := sizeOf[T]()
	for i := 0; i < nelems; i++ {
		pe.PutBytes(p, target, dst+SymAddr(i*tst*es), bytesOf(src[i*sst:i*sst+1]))
	}
}

// IGet is the strided get (shmem_TYPE_iget): for i in [0, nelems),
// dst[i*tst] receives symmetric element index i*sst from src.
func IGet[T Scalar](p *sim.Proc, pe *PE, target int, src SymAddr, dst []T, tst, sst, nelems int) {
	if tst < 1 || sst < 1 {
		panic("core: strides must be >= 1")
	}
	if nelems > 0 && (nelems-1)*tst >= len(dst) {
		panic("core: iget destination stride walks past the slice")
	}
	es := sizeOf[T]()
	for i := 0; i < nelems; i++ {
		pe.GetBytes(p, target, src+SymAddr(i*sst*es), bytesOf(dst[i*tst:i*tst+1]))
	}
}

// LocalPut writes the PE's own copy of a symmetric object with typed
// data; LocalGet reads it. They are the typed faces of LocalWrite/
// LocalRead and are how SPMD programs initialise symmetric memory.
func LocalPut[T Scalar](p *sim.Proc, pe *PE, dst SymAddr, src []T) {
	pe.LocalWrite(p, dst, bytesOf(src))
}

// LocalGet reads the PE's own copy of a symmetric object.
func LocalGet[T Scalar](p *sim.Proc, pe *PE, src SymAddr, dst []T) {
	pe.LocalRead(p, src, bytesOf(dst))
}

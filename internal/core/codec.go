package core

import (
	"fmt"
	"math"

	"repro/internal/mem"
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

// encodeSlice serialises src little-endian into dst, which must be large
// enough.
func encodeSlice[T Scalar](src []T, dst []byte) {
	switch s := any(src).(type) {
	case []int32:
		for i, v := range s {
			le.PutUint32(dst[4*i:], uint32(v))
		}
	case []uint32:
		for i, v := range s {
			le.PutUint32(dst[4*i:], v)
		}
	case []int64:
		for i, v := range s {
			le.PutUint64(dst[8*i:], uint64(v))
		}
	case []uint64:
		for i, v := range s {
			le.PutUint64(dst[8*i:], v)
		}
	case []float32:
		for i, v := range s {
			le.PutUint32(dst[4*i:], math.Float32bits(v))
		}
	case []float64:
		for i, v := range s {
			le.PutUint64(dst[8*i:], math.Float64bits(v))
		}
	default:
		panic(fmt.Sprintf("core: unsupported scalar slice %T", src))
	}
}

// decodeSlice deserialises little-endian bytes into dst.
func decodeSlice[T Scalar](src []byte, dst []T) {
	switch d := any(dst).(type) {
	case []int32:
		for i := range d {
			d[i] = int32(le.Uint32(src[4*i:]))
		}
	case []uint32:
		for i := range d {
			d[i] = le.Uint32(src[4*i:])
		}
	case []int64:
		for i := range d {
			d[i] = int64(le.Uint64(src[8*i:]))
		}
	case []uint64:
		for i := range d {
			d[i] = le.Uint64(src[8*i:])
		}
	case []float32:
		for i := range d {
			d[i] = math.Float32frombits(le.Uint32(src[4*i:]))
		}
	case []float64:
		for i := range d {
			d[i] = math.Float64frombits(le.Uint64(src[8*i:]))
		}
	default:
		panic(fmt.Sprintf("core: unsupported scalar slice %T", dst))
	}
}

// Put is the typed shmem_TYPE_put: copy src into target's symmetric
// object at dst. On real hardware no conversion happens (both sides share
// the layout), so marshalling here carries no modelled time cost.
func Put[T Scalar](p *sim.Proc, pe *PE, target int, dst SymAddr, src []T) {
	buf := make([]byte, len(src)*sizeOf[T]())
	encodeSlice(src, buf)
	pe.PutBytes(p, target, dst, buf)
}

// Get is the typed shmem_TYPE_get: copy target's symmetric object at src
// into dst.
func Get[T Scalar](p *sim.Proc, pe *PE, target int, src SymAddr, dst []T) {
	buf := make([]byte, len(dst)*sizeOf[T]())
	pe.GetBytes(p, target, src, buf)
	decodeSlice(buf, dst)
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
	one := make([]byte, es)
	for i := 0; i < nelems; i++ {
		encodeSlice(src[i*sst:i*sst+1], one)
		pe.PutBytes(p, target, dst+SymAddr(i*tst*es), one)
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
	one := make([]byte, es)
	for i := 0; i < nelems; i++ {
		pe.GetBytes(p, target, src+SymAddr(i*sst*es), one)
		decodeSlice(one, dst[i*tst:i*tst+1])
	}
}

// localStage is the stack buffer the typed local ops encode and decode
// through, a piece at a time: one memcpy charge covers the whole object,
// and no call allocates.
const localStage = 1024

// LocalPut writes the PE's own copy of a symmetric object with typed
// data; LocalGet reads it. They are the typed faces of LocalWrite/
// LocalRead and are how SPMD programs initialise symmetric memory.
func LocalPut[T Scalar](p *sim.Proc, pe *PE, dst SymAddr, src []T) {
	es := sizeOf[T]()
	pe.localCopy(p, dst, len(src)*es)
	var stage [localStage]byte
	for len(src) > 0 {
		k := min(len(src), localStage/es)
		buf := stage[:k*es]
		encodeSlice(src[:k], buf)
		pe.heap.Write(int64(dst), mem.ZeroOr(buf))
		src, dst = src[k:], dst+SymAddr(k*es)
	}
	pe.heapWrite.Broadcast()
}

// LocalGet reads the PE's own copy of a symmetric object.
func LocalGet[T Scalar](p *sim.Proc, pe *PE, src SymAddr, dst []T) {
	es := sizeOf[T]()
	pe.localCopy(p, src, len(dst)*es)
	var stage [localStage]byte
	for len(dst) > 0 {
		k := min(len(dst), localStage/es)
		buf := stage[:k*es]
		pe.heap.Read(int64(src), buf)
		decodeSlice(buf, dst[:k])
		dst, src = dst[k:], src+SymAddr(k*es)
	}
}

// Package gf16 implements arithmetic in the Galois field GF(2^16).
//
// The paper's Π_ℓBA+ protocol (Section 7) assumes Reed-Solomon codes whose
// symbols live in a field GF(2^a) with n ≤ 2^a − 1 parties. GF(2^16)
// supports up to 65535 parties, far beyond any simulation here, while
// keeping symbols a convenient two bytes.
//
// The field is realized as GF(2)[x] / (x^16 + x^12 + x^3 + x + 1), the
// primitive polynomial used by e.g. the PAR2 specification; x (= 0x0002) is
// a primitive element, so multiplication is table-driven via discrete
// logarithms.
package gf16

// Elem is an element of GF(2^16).
type Elem uint16

// Order is the multiplicative order of the field's unit group.
const Order = 1<<16 - 1

// reducingPoly is x^16 + x^12 + x^3 + x + 1 without the leading x^16 term,
// i.e. the feedback mask applied when a carry leaves the top bit.
const reducingPoly = 0x100B

// expMask sizes the exponent table to a power of two: every valid index
// (≤ 2·Order − 2) is below 1<<17, so `idx & expMask` is semantically a
// no-op that lets the compiler drop the bounds check in the slice kernels'
// innermost loops.
const expMask = 1<<17 - 1

// The log/exp tables are fixed-size arrays built once at package init, so
// no hot path — in particular the slice kernels, which sit in the innermost
// loops of the Reed-Solomon codec — ever pays a sync.Once check or a slice
// indirection. Building costs ~65k shift-and-reduce multiplications (well
// under a millisecond of startup).
var (
	expTable [expMask + 1]Elem // exp[i] = x^i, doubled so products avoid a modulo
	logTable [1 << 16]uint32
)

func init() {
	v := Elem(1)
	for i := 0; i < Order; i++ {
		expTable[i] = v
		expTable[i+Order] = v
		logTable[v] = uint32(i)
		v = mulNoTable(v, 2)
	}
}

// mulNoTable multiplies by shift-and-reduce; used only to build the tables
// and in tests as an independent reference implementation.
func mulNoTable(a, b Elem) Elem {
	var acc uint32
	av, bv := uint32(a), uint32(b)
	for bv != 0 {
		if bv&1 == 1 {
			acc ^= av
		}
		av <<= 1
		if av&0x10000 != 0 {
			av ^= 0x10000 | reducingPoly
		}
		bv >>= 1
	}
	return Elem(acc)
}

// Add returns a + b (= a − b) in GF(2^16).
func Add(a, b Elem) Elem { return a ^ b }

// Mul returns a·b in GF(2^16).
func Mul(a, b Elem) Elem {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[logTable[a]+logTable[b]]
}

// Inv returns the multiplicative inverse of a. Inv(0) is undefined and
// returns 0; callers must not divide by zero (guarded at call sites).
func Inv(a Elem) Elem {
	if a == 0 {
		return 0
	}
	return expTable[Order-logTable[a]]
}

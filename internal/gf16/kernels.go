package gf16

// The slice kernel: the coefficient-specialized bulk operation of the
// reference Reed-Solomon engine. It hoists the zero test and discrete-log
// lookup of the constant coefficient out of the loop, so the per-symbol
// work is one zero test, one log lookup, one (pre-offset) exp lookup, and
// an XOR — versus two zero tests, a sync-guard and two log lookups per
// symbol when composing the scalar Mul/Add. It is allocation-free and safe
// for concurrent use (the tables are immutable after init).

// MulAddSlice sets dst[i] ^= c·src[i] for every i — the fused
// multiply-accumulate at the core of every matrix-vector product in the
// reference codec. dst and src must have equal length (shorter dst panics,
// longer dst is left untouched past len(src)); they may alias exactly
// (dst == src) but must not partially overlap.
func MulAddSlice(c Elem, dst, src []Elem) {
	if c == 0 {
		return
	}
	lc := logTable[c]
	dst = dst[:len(src)]
	for i, v := range src {
		if v != 0 {
			dst[i] ^= expTable[(lc+logTable[v])&expMask]
		}
	}
}

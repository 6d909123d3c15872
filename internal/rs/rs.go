// Package rs implements the systematic Reed-Solomon erasure code assumed by
// the paper's Π_ℓBA+ protocol (Section 7): RS.ENCODE splits a value into n
// codewords of O(ℓ/n) bits each such that RS.DECODE reconstructs the value
// from any k = n − t of them.
//
// Symbols are elements of GF(2^16) (package gf16). The code is systematic:
// the k data symbols of each stripe are the polynomial's evaluations at
// points 1..k, and shares k+1..n are evaluations at the remaining points, so
// shares 0..k−1 carry the payload verbatim.
//
// Corrupted shares are *not* detected here — the protocol layer filters
// shares through Merkle-tree witnesses (package merkle) before decoding, so
// decoding is pure erasure decoding, exactly as in the paper.
//
// Performance architecture: encode and decode are stripe-major batch
// computations. Share j's byte buffer is exactly the j-th codeword symbol
// of every stripe in sequence, so each share is one contiguous vector. Two
// engines produce bit-identical output (see golden_test.go and
// fuzz_test.go):
//
//   - The word engine (the default where gf16.HasFastPath reports vector
//     kernels): decodes are keyed by the present-index set, and the full
//     Lagrange coefficient matrix for that erasure pattern is expanded once
//     into nibble tables and cached in a per-Codec LRU (plan.go). A decode
//     is then one gf16.DotWords fused matrix-row product per missing data
//     column over the split (lo/hi byte) column layout; encode streams the
//     precomputed extension rows through the same kernel. Independent
//     output columns fan out across pool.ForEach when the row work and
//     GOMAXPROCS justify it; every goroutine writes only its own
//     index-addressed slots, so results are deterministic and race-free.
//
//   - The reference engine (decodeReference/encodeReference): the original
//     barycentric interpolation per call using the allocation-free
//     gf16.MulAddSlice table kernels. It is the ground truth the word
//     engine is differentially fuzzed against, and the only path on
//     targets without the vector kernels.
//
// Scratch vectors are recycled through a per-Codec sync.Pool; see the
// Codec doc comment for the goroutine-safety contract.
package rs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"convexagreement/internal/gf16"
	"convexagreement/internal/pool"
)

// Errors returned by the codec.
var (
	ErrParams        = errors.New("rs: invalid code parameters")
	ErrTooFewShares  = errors.New("rs: not enough shares to decode")
	ErrShareMismatch = errors.New("rs: inconsistent or malformed shares")
	ErrCorrupt       = errors.New("rs: decoded payload is malformed")
)

// Codec is a Reed-Solomon code with n total shares and data dimension k:
// any k of the n shares reconstruct the payload.
//
// Goroutine-safety contract: a Codec is safe for concurrent use by multiple
// goroutines. The code parameters and extension matrix are immutable after
// construction. Each Encode/Decode call holds a private *scratch from an
// internal sync.Pool for the full duration of the call, so in-flight calls
// never share working buffers; the only bytes that outlive a call are the
// encoded shares (freshly allocated per call) and the decoded payload
// (copied out of scratch by unframe before the scratch is recycled).
// Audited sharp edge: selectShares returns a view aliasing its scratch and
// must not escape the call — no decode path retains it. The two pieces of
// shared mutable state, the decode-plan cache and the lazily built encode
// tables, are guarded by a mutex (planCache.mu) and a sync.Once
// respectively.
type Codec struct {
	n, k int
	// ext[r][j] is the Lagrange coefficient mapping data symbol j to
	// extension share k+r, precomputed at construction.
	ext [][]gf16.Elem
	// scratch recycles the per-call working set (symbol columns, decode
	// matrix rows, framing buffers) across Encode/Decode calls; each call
	// takes a private *scratch, so the Codec stays concurrency-safe.
	scratch sync.Pool
	// plans caches expanded decode matrices per erasure pattern (plan.go).
	plans planCache
	// encTabs holds ext expanded into nibble tables for the word-engine
	// encode, row-major (n−k)×k; built on first use under encOnce.
	encTabs []gf16.MulTable
	encOnce sync.Once
}

// scratch is one call's reusable working set. Buffers grow to the largest
// payload seen and are then reused allocation-free.
type scratch struct {
	framed []byte      // framed payload / reassembly grid
	cols   []gf16.Elem // k symbol columns of `stripes` elements each, flat
	parity []gf16.Elem // n−k parity columns, flat (reference encode)
	vec    []gf16.Elem // one column: decode output (reference)
	row    []gf16.Elem // one k-wide matrix row (reference decode)
	pts    []gf16.Elem // chosen evaluation points (reference decode)
	w      []gf16.Elem // barycentric weights (reference decode)
	seen   []bool      // share-index dedup bitmap (decode)
	chosen []Share     // validated shares (decode)
	key    []byte      // packed present-index cache key (word decode)
	colsLo []byte      // split column layout, low bytes (word engine)
	colsHi []byte      // split column layout, high bytes (word engine)
	outLo  []byte      // per-output-column accumulators, low bytes
	outHi  []byte      // per-output-column accumulators, high bytes
}

// Share is one codeword: the Index-th share (0-based) of an encoded payload.
type Share struct {
	Index int
	Data  []byte
}

// point returns the field evaluation point for share index i (0-based).
func point(i int) gf16.Elem { return gf16.Elem(i + 1) }

// NewCodec builds an (n, k) code. Requires 1 ≤ k ≤ n ≤ 65535.
func NewCodec(n, k int) (*Codec, error) {
	if k < 1 || n < k || n > 65535 {
		return nil, fmt.Errorf("%w: n=%d k=%d", ErrParams, n, k)
	}
	c := &Codec{n: n, k: k}
	c.scratch.New = func() any { return new(scratch) }
	c.plans.init()
	if n == k {
		return c, nil
	}
	// Barycentric weights over the data points 1..k:
	//   w_j = 1 / Π_{m≠j} (x_j − x_m).
	w := make([]gf16.Elem, k)
	for j := 0; j < k; j++ {
		prod := gf16.Elem(1)
		for m := 0; m < k; m++ {
			if m != j {
				prod = gf16.Mul(prod, gf16.Add(point(j), point(m)))
			}
		}
		w[j] = gf16.Inv(prod)
	}
	c.ext = make([][]gf16.Elem, n-k)
	for r := 0; r < n-k; r++ {
		t := point(k + r)
		// full = Π_m (t − x_m); row[j] = full · w_j / (t − x_j).
		full := gf16.Elem(1)
		for m := 0; m < k; m++ {
			full = gf16.Mul(full, gf16.Add(t, point(m)))
		}
		row := make([]gf16.Elem, k)
		for j := 0; j < k; j++ {
			row[j] = gf16.Mul(gf16.Mul(full, w[j]), gf16.Inv(gf16.Add(t, point(j))))
		}
		c.ext[r] = row
	}
	return c, nil
}

// sharedCodecs bounds the SharedCodec cache: a deployment runs one or a few
// (n, t) shapes, and each cached codec holds its encode tables (128·k·(n−k)
// bytes) and its decode-plan LRU (plan.go's bounds) for as long as it stays.
const sharedCodecs = 4

// shared is the process-wide codec cache, most recently used first.
var shared struct {
	mu     sync.Mutex
	codecs []*Codec
}

// SharedCodec returns the process-wide (n, k) codec, building it on first
// use: every caller of one shape shares one extension matrix, one set of
// encode tables, one decode-plan cache and one scratch pool, instead of
// rebuilding them per protocol instance. A Codec is goroutine-safe, so the
// callers need no coordination. The cache keeps the sharedCodecs most
// recently used shapes; a caller that wants a private codec uses NewCodec.
func SharedCodec(n, k int) (*Codec, error) {
	shared.mu.Lock()
	defer shared.mu.Unlock()
	i := slices.IndexFunc(shared.codecs, func(c *Codec) bool { return c.n == n && c.k == k })
	if i < 0 {
		// Built under the lock: concurrent first callers of one shape (every
		// party of a session at once) wait for one build instead of racing n.
		c, err := NewCodec(n, k)
		if err != nil {
			return nil, err
		}
		if len(shared.codecs) < sharedCodecs {
			shared.codecs = append(shared.codecs, nil)
		}
		i = len(shared.codecs) - 1 // a full cache drops its least recently used
		shared.codecs[i] = c
	}
	c := shared.codecs[i]
	copy(shared.codecs[1:i+1], shared.codecs[:i])
	shared.codecs[0] = c
	return c, nil
}

// N returns the total number of shares.
func (c *Codec) N() int { return c.n }

// K returns the reconstruction threshold (data dimension).
func (c *Codec) K() int { return c.k }

// ShareSize returns the byte length of each share for a payload of
// payloadLen bytes.
func (c *Codec) ShareSize(payloadLen int) int {
	return 2 * c.stripes(payloadLen)
}

func (c *Codec) stripes(payloadLen int) int {
	total := 4 + payloadLen // 4-byte length header
	perStripe := 2 * c.k
	return (total + perStripe - 1) / perStripe
}

// sizeFramed (re)sizes the framed stripe grid for `stripes` stripes.
func (c *Codec) sizeFramed(s *scratch, stripes int) []byte {
	return resizeBytes(&s.framed, 2*c.k*stripes)
}

// wordStride is the padded column length for the word engine: stripes
// rounded up to the 32-symbol vector width. Pad symbols are zero, which is
// safe because zero source symbols contribute nothing to an accumulation
// and pad output symbols are never packed back out.
func wordStride(stripes int) int { return (stripes + 31) &^ 31 }

// parallelRowWork is the per-output-column kernel work (in symbols, ≈
// k·stripes) below which fanning out across the pool costs more than it
// saves.
const parallelRowWork = 1 << 14

// fanOut runs fn(i) for i in [0,rows), in parallel via the pool when the
// per-row work is heavy enough to amortize dispatch. fn must write only
// state owned by its row index; under that discipline the result is
// bit-identical to the serial loop regardless of scheduling.
func fanOut(rows, rowWork int, fn func(i int)) {
	if rows > 1 && rowWork >= parallelRowWork && pool.Workers() > 1 {
		pool.ForEach(rows, fn)
		return
	}
	for i := 0; i < rows; i++ {
		fn(i)
	}
}

// Encode is the paper's RS.ENCODE: it splits payload into n shares of
// ShareSize(len(payload)) bytes each. Encoding is deterministic, so every
// honest party derives identical shares from identical payloads.
func (c *Codec) Encode(payload []byte) ([]Share, error) {
	return c.EncodeTo(nil, payload)
}

// EncodeTo is Encode with the shares' bytes taken from buf when its
// capacity holds all n of them (n·ShareSize(len(payload)) bytes), from a
// fresh array otherwise: a caller that encodes several payloads one after
// another reuses one buffer, and the shares alias it until the next call.
func (c *Codec) EncodeTo(buf, payload []byte) ([]Share, error) {
	return c.encode(buf, payload, gf16.HasFastPath())
}

// encode routes between the word and reference parity engines; the flag is
// explicit so differential tests can pin the two engines byte-identical.
func (c *Codec) encode(buf, payload []byte, words bool) ([]Share, error) {
	if len(payload) > 1<<31-5 {
		return nil, fmt.Errorf("%w: payload too large", ErrParams)
	}
	stripes := c.stripes(len(payload))
	shareSize := 2 * stripes
	s := c.scratch.Get().(*scratch)
	defer c.scratch.Put(s)

	// Frame: 4-byte length header, payload, zero padding to the grid size.
	framed := c.sizeFramed(s, stripes)
	binary.BigEndian.PutUint32(framed, uint32(len(payload)))
	copy(framed[4:], payload)
	clearBytes(framed[4+len(payload):])

	// One flat backing array for all n share buffers. Every byte of it is
	// written below, so a reused buffer needs no clearing.
	flat := buf[:cap(buf)]
	if len(flat) < c.n*shareSize {
		flat = make([]byte, c.n*shareSize)
	}
	shares := make([]Share, c.n)
	for i := range shares {
		shares[i] = Share{Index: i, Data: flat[i*shareSize : (i+1)*shareSize]}
	}

	// Systematic part: share j's bytes are data column j of the stripe
	// grid, filled in one sequential sweep over framed.
	for st := 0; st < stripes; st++ {
		base := 2 * st * c.k
		for j := 0; j < c.k; j++ {
			shares[j].Data[2*st] = framed[base+2*j]
			shares[j].Data[2*st+1] = framed[base+2*j+1]
		}
	}
	if c.n == c.k {
		return shares, nil
	}
	if words {
		c.encodeWords(s, shares, stripes)
	} else {
		c.encodeReference(s, shares, stripes)
	}
	return shares, nil
}

// encodeWords computes the parity shares with the word engine: the
// extension matrix, expanded once into nibble tables, is streamed over the
// split column layout with one fused gf16.DotWords call per parity share.
// Parity rows are independent, so they fan out across the pool.
func (c *Codec) encodeWords(s *scratch, shares []Share, stripes int) {
	k := c.k
	stride := wordStride(stripes)
	colsLo := resizeBytes(&s.colsLo, k*stride)
	colsHi := resizeBytes(&s.colsHi, k*stride)
	for j := 0; j < k; j++ {
		base := j * stride
		gf16.Unpack(colsLo[base:base+stripes], colsHi[base:base+stripes], shares[j].Data)
		clearBytes(colsLo[base+stripes : base+stride])
		clearBytes(colsHi[base+stripes : base+stride])
	}
	c.encOnce.Do(c.buildEncTabs)
	rows := c.n - k
	outLo := resizeBytes(&s.outLo, rows*stride)
	outHi := resizeBytes(&s.outHi, rows*stride)
	fanOut(rows, k*stripes, func(r int) {
		oLo := outLo[r*stride : r*stride+stride]
		oHi := outHi[r*stride : r*stride+stride]
		clearBytes(oLo)
		clearBytes(oHi)
		gf16.DotWords(c.encTabs[r*k:(r+1)*k], oLo, oHi, colsLo, colsHi, stride)
		gf16.Pack(shares[k+r].Data, oLo[:stripes], oHi[:stripes])
	})
}

// buildEncTabs expands the extension matrix into nibble tables, once per
// Codec (under encOnce).
func (c *Codec) buildEncTabs() {
	tabs := make([]gf16.MulTable, (c.n-c.k)*c.k)
	for r := 0; r < c.n-c.k; r++ {
		for j := 0; j < c.k; j++ {
			gf16.MakeMulTable(c.ext[r][j], &tabs[r*c.k+j])
		}
	}
	c.encTabs = tabs
}

// encodeReference computes the parity shares with the original table-kernel
// engine: extension share k+r is Σ_j ext[r][j] · column_j, one fused
// multiply-accumulate kernel call per matrix coefficient. Tiling: parity
// rows are processed in blocks small enough that the block's accumulators
// stay L1-resident while the k source columns stream through once per
// block.
func (c *Codec) encodeReference(s *scratch, shares []Share, stripes int) {
	const rowBlock = 24
	cols := resizeElems(&s.cols, c.k*stripes)
	for j := 0; j < c.k; j++ {
		unpackBE(cols[j*stripes:(j+1)*stripes], shares[j].Data)
	}
	parity := resizeElems(&s.parity, (c.n-c.k)*stripes)
	clearElems(parity)
	for r0 := 0; r0 < c.n-c.k; r0 += rowBlock {
		r1 := r0 + rowBlock
		if r1 > c.n-c.k {
			r1 = c.n - c.k
		}
		for j := 0; j < c.k; j++ {
			col := cols[j*stripes : (j+1)*stripes]
			for r := r0; r < r1; r++ {
				gf16.MulAddSlice(c.ext[r][j], parity[r*stripes:(r+1)*stripes], col)
			}
		}
	}
	for r := 0; r < c.n-c.k; r++ {
		packBE(shares[c.k+r].Data, parity[r*stripes:(r+1)*stripes])
	}
}

// Decode is the paper's RS.DECODE: it reconstructs the payload from any k
// distinct, well-formed shares. Extra shares beyond k are ignored (the
// protocol layer has already authenticated every share it passes in).
func (c *Codec) Decode(shares []Share) ([]byte, error) {
	return c.decode(shares, gf16.HasFastPath())
}

// decode routes between the word and reference engines; the flag is
// explicit so FuzzDecodeCachedVsReference can pin the cached word-engine
// path byte-identical to the reference interpolation.
func (c *Codec) decode(shares []Share, words bool) ([]byte, error) {
	s := c.scratch.Get().(*scratch)
	defer c.scratch.Put(s)
	chosen, err := c.selectShares(s, shares)
	if err != nil {
		return nil, err
	}
	stripes := len(chosen[0].Data) / 2
	framed := c.sizeFramed(s, stripes)

	// Fast path: if all data-range shares are present, copy them through.
	systematic := true
	for j := 0; j < c.k; j++ {
		if chosen[j].Index != j {
			systematic = false
			break
		}
	}
	if systematic {
		for st := 0; st < stripes; st++ {
			base := 2 * st * c.k
			for j := 0; j < c.k; j++ {
				framed[base+2*j] = chosen[j].Data[2*st]
				framed[base+2*j+1] = chosen[j].Data[2*st+1]
			}
		}
		return unframe(framed)
	}
	if words {
		return c.decodeWords(s, chosen, stripes)
	}
	return c.decodeReference(s, chosen, stripes)
}

// decodeWords is the cached-plan interpolated decode: look up (or build)
// the expanded Lagrange matrix for this erasure pattern, then synthesize
// each missing data column as one fused gf16.DotWords product over the
// split column layout. Present data columns are copied through verbatim.
// Missing columns are independent, so they fan out across the pool; each
// row writes only its own out-slot and its own (disjoint) byte pairs of
// the framed grid.
func (c *Codec) decodeWords(s *scratch, chosen []Share, stripes int) ([]byte, error) {
	plan := c.planFor(s, chosen)
	k := c.k
	stride := wordStride(stripes)
	colsLo := resizeBytes(&s.colsLo, k*stride)
	colsHi := resizeBytes(&s.colsHi, k*stride)
	framed := s.framed
	for j, sh := range chosen {
		base := j * stride
		gf16.Unpack(colsLo[base:base+stripes], colsHi[base:base+stripes], sh.Data)
		clearBytes(colsLo[base+stripes : base+stride])
		clearBytes(colsHi[base+stripes : base+stride])
		// Present data columns land in the frame as-is.
		if t := sh.Index; t < k {
			for st := 0; st < stripes; st++ {
				framed[2*(st*k+t)] = sh.Data[2*st]
				framed[2*(st*k+t)+1] = sh.Data[2*st+1]
			}
		}
	}
	e := len(plan.missing)
	outLo := resizeBytes(&s.outLo, e*stride)
	outHi := resizeBytes(&s.outHi, e*stride)
	fanOut(e, k*stripes, func(ti int) {
		t := plan.missing[ti]
		oLo := outLo[ti*stride : ti*stride+stride]
		oHi := outHi[ti*stride : ti*stride+stride]
		clearBytes(oLo)
		clearBytes(oHi)
		gf16.DotWords(plan.tabs[ti*k:(ti+1)*k], oLo, oHi, colsLo, colsHi, stride)
		for st := 0; st < stripes; st++ {
			framed[2*(st*k+t)] = oHi[st]
			framed[2*(st*k+t)+1] = oLo[st]
		}
	})
	return unframe(framed)
}

// decodeReference is the original interpolated decode, retained as the
// ground-truth implementation: Lagrange-interpolate each stripe at the
// data points, batched — unpack the chosen shares into contiguous symbol
// columns, then compute each data column as one matrix-row × columns
// product with the gf16 slice kernels, rebuilding the matrix row per call.
func (c *Codec) decodeReference(s *scratch, chosen []Share, stripes int) ([]byte, error) {
	framed := s.framed
	cols := resizeElems(&s.cols, c.k*stripes)
	for j := 0; j < c.k; j++ {
		unpackBE(cols[j*stripes:(j+1)*stripes], chosen[j].Data)
	}
	pts := resizeElems(&s.pts, c.k)
	for j, sh := range chosen {
		pts[j] = point(sh.Index)
	}
	// Barycentric weights over the chosen points.
	w := resizeElems(&s.w, c.k)
	for j := 0; j < c.k; j++ {
		prod := gf16.Elem(1)
		for m := 0; m < c.k; m++ {
			if m != j {
				prod = gf16.Mul(prod, gf16.Add(pts[j], pts[m]))
			}
		}
		w[j] = gf16.Inv(prod)
	}
	row := resizeElems(&s.row, c.k)
	out := resizeElems(&s.vec, stripes)
	for t := 0; t < c.k; t++ {
		tp := point(t)
		// If the target point is among the chosen points, the polynomial
		// value there is that share's symbol column verbatim.
		direct := -1
		for j := range pts {
			if pts[j] == tp {
				direct = j
				break
			}
		}
		if direct >= 0 {
			copy(out, cols[direct*stripes:(direct+1)*stripes])
		} else {
			full := gf16.Elem(1)
			for m := 0; m < c.k; m++ {
				full = gf16.Mul(full, gf16.Add(tp, pts[m]))
			}
			for j := 0; j < c.k; j++ {
				row[j] = gf16.Mul(gf16.Mul(full, w[j]), gf16.Inv(gf16.Add(tp, pts[j])))
			}
			clearElems(out)
			for j := 0; j < c.k; j++ {
				gf16.MulAddSlice(row[j], out, cols[j*stripes:(j+1)*stripes])
			}
		}
		// Scatter data column t back into the framed stripe grid.
		for st, v := range out {
			framed[2*(st*c.k+t)] = byte(v >> 8)
			framed[2*(st*c.k+t)+1] = byte(v)
		}
	}
	return unframe(framed)
}

// selectShares validates the provided shares and returns k of them sorted by
// index. The returned slice aliases s.chosen and is valid until s is reused.
func (c *Codec) selectShares(s *scratch, shares []Share) ([]Share, error) {
	if cap(s.seen) < c.n {
		s.seen = make([]bool, c.n)
	} else {
		s.seen = s.seen[:c.n]
		clearBools(s.seen)
	}
	valid := s.chosen[:0]
	size := -1
	sorted := true
	for _, sh := range shares {
		if sh.Index < 0 || sh.Index >= c.n || s.seen[sh.Index] {
			return nil, fmt.Errorf("%w: bad or duplicate index %d", ErrShareMismatch, sh.Index)
		}
		if len(sh.Data) == 0 || len(sh.Data)%2 != 0 {
			return nil, fmt.Errorf("%w: share %d has odd length %d", ErrShareMismatch, sh.Index, len(sh.Data))
		}
		if size == -1 {
			size = len(sh.Data)
		} else if len(sh.Data) != size {
			return nil, fmt.Errorf("%w: share lengths differ", ErrShareMismatch)
		}
		if len(valid) > 0 && valid[len(valid)-1].Index > sh.Index {
			sorted = false
		}
		s.seen[sh.Index] = true
		valid = append(valid, sh)
	}
	s.chosen = valid[:0:cap(valid)] // remember a grown backing array
	if len(valid) < c.k {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrTooFewShares, len(valid), c.k)
	}
	// The protocol layer hands shares in index order (it collects them into
	// per-index slots), so the sort is usually a no-op we can skip.
	if !sorted {
		sort.Slice(valid, func(i, j int) bool { return valid[i].Index < valid[j].Index })
	}
	return valid[:c.k], nil
}

func unframe(framed []byte) ([]byte, error) {
	if len(framed) < 4 {
		return nil, ErrCorrupt
	}
	n := binary.BigEndian.Uint32(framed)
	if int64(n) > int64(len(framed)-4) {
		return nil, fmt.Errorf("%w: claimed length %d exceeds frame", ErrCorrupt, n)
	}
	out := make([]byte, n)
	copy(out, framed[4:4+n])
	return out, nil
}

// packBE writes src as big-endian 16-bit symbols into dst.
func packBE(dst []byte, src []gf16.Elem) {
	for i, v := range src {
		dst[2*i] = byte(v >> 8)
		dst[2*i+1] = byte(v)
	}
}

// unpackBE reads len(dst) big-endian 16-bit symbols from src into dst.
func unpackBE(dst []gf16.Elem, src []byte) {
	for i := range dst {
		dst[i] = gf16.Elem(uint16(src[2*i])<<8 | uint16(src[2*i+1]))
	}
}

func resizeElems(buf *[]gf16.Elem, n int) []gf16.Elem {
	if cap(*buf) < n {
		*buf = make([]gf16.Elem, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func resizeBytes(buf *[]byte, n int) []byte {
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func clearElems(s []gf16.Elem) {
	for i := range s {
		s[i] = 0
	}
}

func clearBytes(s []byte) {
	for i := range s {
		s[i] = 0
	}
}

func clearBools(s []bool) {
	for i := range s {
		s[i] = false
	}
}

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
//     precomputed extension rows through the same kernel. Both run on the
//     calling goroutine: a party's codec work is its own, and every party
//     of a deployment already has a goroutine of its own to run it on.
//
//   - The reference engine (decodeReference/encodeReference): the original
//     barycentric interpolation per call using the allocation-free
//     gf16.MulAddSlice table kernels. It is the ground truth the word
//     engine is differentially fuzzed against, and the only path on
//     targets without the vector kernels.
//
// Working buffers belong to the caller: EncodeTo and DecodeTo take a
// *Scratch that grows to the largest payload (for the word engines, the
// largest chunk of stripes) it has served and is then reused without
// allocating, and DecodeTo reassembles into a buffer the caller passes.
// Encode and Decode are the same calls with fresh buffers each. The
// payload is split straight into the column layout, and gf16.Pack/Unpack
// convert between that layout and the shares eight symbols per step.
package rs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"convexagreement/internal/gf16"
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
// construction, and a call's working buffers are the caller's Scratch, so
// calls on distinct Scratches never share them. What outlives a call lives
// in memory the caller owns: the shares in the buffer it passed to EncodeTo
// (their headers in its Scratch), the payload in the Scratch it passed to
// DecodeTo. The two pieces of shared mutable state, the decode-plan cache
// and the lazily built encode tables, are guarded by a mutex (planCache.mu)
// and a sync.Once respectively.
type Codec struct {
	n, k int
	// ext[r][j] is the Lagrange coefficient mapping data symbol j to
	// extension share k+r, precomputed at construction.
	ext [][]gf16.Elem
	// plans caches expanded decode matrices per erasure pattern (plan.go).
	plans planCache
	// encTabs holds ext expanded into nibble tables for the word-engine
	// encode, row-major (n−k)×k; built on first use under encOnce.
	encTabs []gf16.MulTable
	encOnce sync.Once
}

// Scratch is the working set of EncodeTo and DecodeTo calls, owned by the
// caller: the split column layout and the accumulators of one chunk of
// stripes (chunkStripes), the share headers, and the reference engine's
// columns. Its buffers grow to the largest payload seen — the chunked ones
// to one chunk — and are then reused allocation-free. The zero value is
// ready to use; a Scratch serves one call at a time.
type Scratch struct {
	edge   []byte      // a grid row splitColumns stages (the header's, the payload's end)
	shares []Share     // EncodeTo's share headers
	joinLo [][]byte    // per data column, its low bytes in split layout (decode)
	joinHi [][]byte    // per data column, its high bytes in split layout (decode)
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
// encode tables and one decode-plan cache, instead of rebuilding them per
// protocol instance. A Codec is goroutine-safe, so the
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

// wordStride is the padded column length for the word engine: stripes
// rounded up to the 32-symbol vector width. Pad symbols are zero, which is
// safe because zero source symbols contribute nothing to an accumulation
// and pad output symbols are never packed back out.
func wordStride(stripes int) int { return (stripes + 31) &^ 31 }

// chunkStripes is how many stripes the word engines take at a time. Their
// column layout and accumulators hold one chunk — k and n−k columns of 4
// KiB per half, tens of KiB — however long the payload, and a chunk's
// columns stay in cache while every matrix row streams over them.
const chunkStripes = 4096

// rowJob is the one matrix product of both word engines, over a chunk of
// span stripes: output row r is Σ_j tabs[r·k+j]·column_j over the split
// column layout, accumulated in row r of the out buffers and, for encode,
// packed into dst[r] at the chunk's offset in it, at.
type rowJob struct {
	k, at, span, stride int
	tabs                []gf16.MulTable
	colsLo, colsHi      []byte
	outLo, outHi        []byte
	dst                 []Share // encode's parity shares; nil on decode
}

func (j *rowJob) row(r int) {
	oLo := j.outLo[r*j.stride : (r+1)*j.stride]
	oHi := j.outHi[r*j.stride : (r+1)*j.stride]
	clear(oLo)
	clear(oHi)
	gf16.DotWords(j.tabs[r*j.k:(r+1)*j.k], oLo, oHi, j.colsLo, j.colsHi, j.stride)
	if j.dst != nil {
		gf16.Pack(j.dst[r].Data[2*j.at:2*(j.at+j.span)], oLo[:j.span], oHi[:j.span])
	}
}

// Encode is the paper's RS.ENCODE: it splits payload into n shares of
// ShareSize(len(payload)) bytes each. Encoding is deterministic, so every
// honest party derives identical shares from identical payloads. It is
// EncodeTo with a fresh buffer and Scratch.
func (c *Codec) Encode(payload []byte) ([]Share, error) {
	return c.EncodeTo(nil, nil, payload)
}

// EncodeTo is Encode into memory the caller owns: the shares' bytes are
// taken from buf when its capacity holds all n of them
// (n·ShareSize(len(payload)) bytes), from a fresh array otherwise, and the
// returned headers and the working buffers are s's (a fresh Scratch when s
// is nil). A caller that encodes several payloads one after another reuses
// one buffer and one Scratch; the shares alias them until the next call.
// It is EncodeStripes over every stripe.
func (c *Codec) EncodeTo(s *Scratch, buf, payload []byte) ([]Share, error) {
	return c.encode(s, buf, payload, gf16.HasFastPath())
}

// EncodeStripes is RS.ENCODE of a run of stripes: share i's codeword
// symbols of the stripes st0, st0+1, … of payload's grid, as many as
// dst[i].Data holds, are written into it, for each of the n shares. Every
// dst[i].Data must have one even length, and the run must lie in the grid
// (st0 + len/2 ≤ ShareSize(len(payload))/2). Each stripe is a codeword of
// its own, so a run is encoded exactly as the full encode encodes it, and
// a caller that knows two payloads' grids differ only in some stripes
// encodes only those. The working buffers are s's, as for EncodeTo.
func (c *Codec) EncodeStripes(s *Scratch, dst []Share, payload []byte, st0 int) error {
	return c.encodeStripes(s, dst, payload, st0, gf16.HasFastPath())
}

// encode carves n shares from buf (or a fresh array) and encodes every
// stripe into them.
func (c *Codec) encode(s *Scratch, buf, payload []byte, words bool) ([]Share, error) {
	if len(payload) > 1<<31-5 {
		return nil, fmt.Errorf("%w: payload too large", ErrParams)
	}
	if s == nil {
		s = new(Scratch)
	}
	shareSize := c.ShareSize(len(payload))
	// One flat backing array for all n share buffers. Every byte of it is
	// written by the encode, so a reused buffer needs no clearing.
	flat := buf[:cap(buf)]
	if len(flat) < c.n*shareSize {
		flat = make([]byte, c.n*shareSize)
	}
	if cap(s.shares) < c.n {
		s.shares = make([]Share, c.n)
	}
	shares := s.shares[:c.n]
	for i := range shares {
		shares[i] = Share{Index: i, Data: flat[i*shareSize : (i+1)*shareSize]}
	}
	if err := c.encodeStripes(s, shares, payload, 0, words); err != nil {
		return nil, err
	}
	return shares, nil
}

// encodeStripes routes between the word and reference parity engines; the
// flag is explicit so differential tests can pin the two engines
// byte-identical.
func (c *Codec) encodeStripes(s *Scratch, dst []Share, payload []byte, st0 int, words bool) error {
	if len(payload) > 1<<31-5 {
		return fmt.Errorf("%w: payload too large", ErrParams)
	}
	if len(dst) != c.n {
		return fmt.Errorf("%w: %d shares for n=%d", ErrParams, len(dst), c.n)
	}
	size := len(dst[0].Data)
	for _, d := range dst {
		if len(d.Data) != size {
			return fmt.Errorf("%w: share lengths differ", ErrParams)
		}
	}
	count := size / 2
	if size%2 != 0 || st0 < 0 || st0+count > c.stripes(len(payload)) {
		return fmt.Errorf("%w: %d bytes from stripe %d of %d", ErrParams, size, st0, c.stripes(len(payload)))
	}
	if s == nil {
		s = new(Scratch)
	}

	// Systematic part: the stripe grid — the 4-byte length header, the
	// payload, zero padding — is split straight into the column layout the
	// word kernels read, a chunk of stripes at a time, and data share j is
	// packed from column j; the word engine derives the chunk's parity from
	// the same columns.
	parity := words && c.n > c.k
	if parity {
		c.encOnce.Do(c.buildEncTabs)
	}
	for at := 0; at < count; at += chunkStripes {
		span := min(chunkStripes, count-at)
		stride := wordStride(span)
		colsLo := resizeBytes(&s.colsLo, c.k*stride)
		colsHi := resizeBytes(&s.colsHi, c.k*stride)
		c.splitColumns(s, colsLo, colsHi, payload, st0+at, span, stride)
		for j := 0; j < c.k; j++ {
			gf16.Pack(dst[j].Data[2*at:2*(at+span)], colsLo[j*stride:j*stride+span], colsHi[j*stride:j*stride+span])
		}
		if parity {
			rows := c.n - c.k
			job := rowJob{
				k: c.k, at: at, span: span, stride: stride, tabs: c.encTabs,
				colsLo: colsLo, colsHi: colsHi,
				outLo: resizeBytes(&s.outLo, rows*stride), outHi: resizeBytes(&s.outHi, rows*stride),
				dst: dst[c.k:],
			}
			for r := range rows {
				job.row(r)
			}
		}
	}
	if c.n > c.k && !words {
		c.encodeReference(s, dst, count)
	}
	return nil
}

// splitColumns moves the span stripes from st0 of the grid that frames
// payload into the split column layout in one sweep down the grid, row by
// row: symbol j of stripe st0+i lands at lo/hi[j·stride+i], and each
// column's pad up to stride is zeroed. The grid is never built: a row that
// lies inside the payload is read from it where it is, and only the rows
// that hold the length header or run past the payload are staged, in
// s.edge. (A sweep blocked eight stripes deep that stores 64-bit words
// per column measured slower on amd64: its reads stride across rows.)
func (c *Codec) splitColumns(s *Scratch, lo, hi, payload []byte, st0, span, stride int) {
	row := 2 * c.k
	var header [4]byte
	binary.BigEndian.PutUint32(header[:], uint32(len(payload)))
	for i := 0; i < span; i++ {
		st := st0 + i
		g := payload[min(max(st*row-4, 0), len(payload)):]
		if st*row < 4 || len(g) < row {
			g = resizeBytes(&s.edge, row)
			clear(g)
			for x := range g {
				if p := st*row + x; p < 4 {
					g[x] = header[p]
				} else if p-4 < len(payload) {
					g[x] = payload[p-4]
				}
			}
		}
		for j := 0; j < c.k; j++ {
			hi[j*stride+i] = g[2*j]
			lo[j*stride+i] = g[2*j+1]
		}
	}
	for j := 0; j < c.k; j++ {
		clear(lo[j*stride+span : (j+1)*stride])
		clear(hi[j*stride+span : (j+1)*stride])
	}
}

// joinColumns is splitColumns' inverse for the data columns: row by row
// over the span stripes from st0, column t of the grid is written from
// lo[t]/hi[t].
func joinColumns(framed []byte, lo, hi [][]byte, st0, span int) {
	row := 2 * len(lo)
	for i := 0; i < span; i++ {
		g := framed[(st0+i)*row : (st0+i+1)*row]
		for t := range lo {
			g[2*t] = hi[t][i]
			g[2*t+1] = lo[t][i]
		}
	}
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
func (c *Codec) encodeReference(s *Scratch, shares []Share, stripes int) {
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
// protocol layer has already authenticated every share it passes in). It is
// DecodeTo with a fresh buffer and Scratch, so the payload is the caller's.
func (c *Codec) Decode(shares []Share) ([]byte, error) {
	return c.DecodeTo(nil, nil, shares)
}

// DecodeTo is Decode into memory the caller owns: the payload is
// reassembled in buf when its capacity holds the stripe grid (k·ShareSize
// bytes of the payload's length, at most the n·ShareSize an EncodeTo of it
// takes), in a fresh array otherwise, and returned as a view of it; s (a
// fresh Scratch when nil) is the working set. The shares must not lie in
// buf.
func (c *Codec) DecodeTo(s *Scratch, buf []byte, shares []Share) ([]byte, error) {
	return c.decode(s, buf, shares, gf16.HasFastPath())
}

// decode routes between the word and reference engines; the flag is
// explicit so FuzzDecodeCachedVsReference can pin the cached word-engine
// path byte-identical to the reference interpolation.
func (c *Codec) decode(s *Scratch, buf []byte, shares []Share, words bool) ([]byte, error) {
	if s == nil {
		s = new(Scratch)
	}
	chosen, err := c.selectShares(s, shares)
	if err != nil {
		return nil, err
	}
	stripes := len(chosen[0].Data) / 2
	framed := buf[:cap(buf)]
	if len(framed) < 2*c.k*stripes {
		framed = make([]byte, 2*c.k*stripes)
	}
	framed = framed[:2*c.k*stripes]

	// Fast path: if all data-range shares are present, they are the grid's
	// columns as they are, copied through row by row. (Moving 16-bit
	// symbols instead of bytes measured slower on amd64.)
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
		c.decodeWords(s, framed, chosen, stripes)
	} else {
		c.decodeReference(s, framed, chosen, stripes)
	}
	return unframe(framed)
}

// decodeWords is the cached-plan interpolated decode into the grid framed:
// the expanded Lagrange matrix for this erasure pattern is looked up (or
// built once), then, a chunk of stripes at a time, every chosen share is
// unpacked into the split column layout, each missing data column is
// synthesized as one fused gf16.DotWords product over it, and one sweep
// joins the present and the synthesized columns into the grid.
func (c *Codec) decodeWords(s *Scratch, framed []byte, chosen []Share, stripes int) {
	k := c.k
	plan := c.planFor(s, chosen)
	e := len(plan.missing)
	if cap(s.joinLo) < k {
		s.joinLo, s.joinHi = make([][]byte, k), make([][]byte, k)
	}
	joinLo, joinHi := s.joinLo[:k], s.joinHi[:k]
	for st0 := 0; st0 < stripes; st0 += chunkStripes {
		span := min(chunkStripes, stripes-st0)
		stride := wordStride(span)
		colsLo := resizeBytes(&s.colsLo, k*stride)
		colsHi := resizeBytes(&s.colsHi, k*stride)
		for j, sh := range chosen {
			base := j * stride
			gf16.Unpack(colsLo[base:base+span], colsHi[base:base+span], sh.Data[2*st0:])
			clear(colsLo[base+span : base+stride])
			clear(colsHi[base+span : base+stride])
			if t := sh.Index; t < k {
				joinLo[t], joinHi[t] = colsLo[base:base+span], colsHi[base:base+span]
			}
		}
		job := rowJob{
			k: k, span: span, stride: stride, tabs: plan.tabs,
			colsLo: colsLo, colsHi: colsHi,
			outLo: resizeBytes(&s.outLo, e*stride), outHi: resizeBytes(&s.outHi, e*stride),
		}
		for r := range e {
			job.row(r)
		}
		for ti, t := range plan.missing {
			joinLo[t], joinHi[t] = s.outLo[ti*stride:ti*stride+span], s.outHi[ti*stride:ti*stride+span]
		}
		joinColumns(framed, joinLo, joinHi, st0, span)
	}
	clear(joinLo) // the views die with the call
	clear(joinHi)
}

// decodeReference is the original interpolated decode, retained as the
// ground-truth implementation: Lagrange-interpolate each stripe at the
// data points, batched — unpack the chosen shares into contiguous symbol
// columns, then compute each data column as one matrix-row × columns
// product with the gf16 slice kernels, rebuilding the matrix row per call.
func (c *Codec) decodeReference(s *Scratch, framed []byte, chosen []Share, stripes int) {
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
}

// selectShares validates the provided shares and returns k of them sorted by
// index. The returned slice aliases s.chosen and is valid until s is reused.
func (c *Codec) selectShares(s *Scratch, shares []Share) ([]Share, error) {
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

// unframe returns the payload the grid's length header frames, as a view.
func unframe(framed []byte) ([]byte, error) {
	if len(framed) < 4 {
		return nil, ErrCorrupt
	}
	n := binary.BigEndian.Uint32(framed)
	if int64(n) > int64(len(framed)-4) {
		return nil, fmt.Errorf("%w: claimed length %d exceeds frame", ErrCorrupt, n)
	}
	return framed[4 : 4+n : 4+n], nil
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

func clearBools(s []bool) {
	for i := range s {
		s[i] = false
	}
}

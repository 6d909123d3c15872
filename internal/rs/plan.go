package rs

// Cached decode plans: the erasure-pattern-keyed fast path for
// interpolated decoding.
//
// An interpolated decode is a dense matrix product: every missing data
// column is a Lagrange combination of all k present columns. The matrix
// depends only on WHICH share indices are present — not on the payload —
// and adversarial erasure patterns repeat across stripes, instances, and
// rounds (a byzantine coalition withholds the same parties' shares every
// time). So the codec keys a small LRU cache by the present-index set and
// stores the fully expanded plan: the list of missing data columns plus
// one gf16.MulTable per matrix coefficient, ready for the word kernels.
// A cache hit turns decoding into pure streaming (gf16.DotWords per
// missing column) with no field arithmetic outside the kernels; a miss
// costs one barycentric matrix construction (~e·k scalar multiplies),
// which the old slow path paid on every call.
//
// The slow path (Codec.decodeReference) is retained verbatim as the
// reference implementation: FuzzDecodeCachedVsReference pins the two
// byte-identical on random erasure patterns, and targets without the
// vectorized kernels use it directly.

import (
	"container/list"
	"sync"

	"convexagreement/internal/gf16"
)

// Cache sizing: patterns beyond these bounds evict least-recently-used
// plans. A plan costs ~128·e·k bytes (1.3 MiB at n=256, k=171 worst
// case), so the byte bound is what actually limits large-n codecs; the
// entry bound keeps small-n caches from accumulating thousands of stale
// patterns.
const (
	planCacheMaxEntries = 64
	planCacheMaxBytes   = 64 << 20
)

// decodePlan is one erasure pattern's expanded decode matrix.
type decodePlan struct {
	// missing lists the data column indices (< k) absent from the chosen
	// shares, in increasing order; these are the columns to synthesize.
	missing []int
	// tabs holds the nibble tables for the matrix coefficients, row-major:
	// tabs[ti*k+j] multiplies chosen column j into missing column
	// missing[ti].
	tabs []gf16.MulTable
	mem  int // approximate footprint in bytes, for cache accounting
}

// planCache is a mutex-guarded LRU of decodePlans keyed by the packed
// present-index set. Lookups on the hit path do not allocate.
type planCache struct {
	mu      sync.Mutex
	byKey   map[string]*list.Element
	lru     list.List // front = most recent; values are *planEntry
	bytes   int
	maxEnts int
	maxByte int
}

type planEntry struct {
	key  string
	plan *decodePlan
}

func (pc *planCache) init() {
	pc.byKey = make(map[string]*list.Element)
	pc.lru.Init()
	pc.maxEnts = planCacheMaxEntries
	pc.maxByte = planCacheMaxBytes
}

// get returns the cached plan for key, refreshing its recency, or nil.
// The byte-slice key avoids allocating on the (dominant) hit path.
func (pc *planCache) get(key []byte) *decodePlan {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	el, ok := pc.byKey[string(key)] // no alloc: map lookup special case
	if !ok {
		return nil
	}
	pc.lru.MoveToFront(el)
	return el.Value.(*planEntry).plan
}

// put inserts a freshly built plan, evicting LRU entries past the bounds.
// If a concurrent builder won the race for the same key, its plan is kept
// (the plans are identical by construction).
func (pc *planCache) put(key string, p *decodePlan) *decodePlan {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el, ok := pc.byKey[key]; ok {
		pc.lru.MoveToFront(el)
		return el.Value.(*planEntry).plan
	}
	pc.byKey[key] = pc.lru.PushFront(&planEntry{key: key, plan: p})
	pc.bytes += p.mem
	for pc.lru.Len() > 1 && (pc.lru.Len() > pc.maxEnts || pc.bytes > pc.maxByte) {
		back := pc.lru.Back()
		ent := back.Value.(*planEntry)
		pc.lru.Remove(back)
		delete(pc.byKey, ent.key)
		pc.bytes -= ent.plan.mem
	}
	return p
}

// len reports the number of cached plans (tests only).
func (pc *planCache) len() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.lru.Len()
}

// planFor returns the decode plan for the chosen share set, consulting the
// cache first. chosen is sorted by index and exactly k long (selectShares
// guarantees both, which is what makes the packed key canonical).
func (c *Codec) planFor(s *Scratch, chosen []Share) *decodePlan {
	key := s.key[:0]
	for _, sh := range chosen {
		key = append(key, byte(sh.Index>>8), byte(sh.Index))
	}
	s.key = key
	if p := c.plans.get(key); p != nil {
		return p
	}
	return c.plans.put(string(key), c.buildPlan(chosen))
}

// buildPlan constructs the expanded decode matrix for one erasure pattern
// using the same barycentric Lagrange math as the reference path: for each
// missing data point t, row[j] = full·w_j/(x_t − x_j) with full =
// Π_m (x_t − x_m) over the chosen points. Each coefficient is then
// expanded into its nibble table once, so decodes never touch the log/exp
// tables again for this pattern.
func (c *Codec) buildPlan(chosen []Share) *decodePlan {
	k := c.k
	pts := make([]gf16.Elem, k)
	present := make([]bool, k)
	for j, sh := range chosen {
		pts[j] = point(sh.Index)
		if sh.Index < k {
			present[sh.Index] = true
		}
	}
	// Barycentric weights over the chosen points.
	w := make([]gf16.Elem, k)
	for j := 0; j < k; j++ {
		prod := gf16.Elem(1)
		for m := 0; m < k; m++ {
			if m != j {
				prod = gf16.Mul(prod, gf16.Add(pts[j], pts[m]))
			}
		}
		w[j] = gf16.Inv(prod)
	}
	p := &decodePlan{}
	row := make([]gf16.Elem, k)
	for t := 0; t < k; t++ {
		if present[t] {
			continue
		}
		tp := point(t)
		full := gf16.Elem(1)
		for m := 0; m < k; m++ {
			full = gf16.Mul(full, gf16.Add(tp, pts[m]))
		}
		for j := 0; j < k; j++ {
			row[j] = gf16.Mul(gf16.Mul(full, w[j]), gf16.Inv(gf16.Add(tp, pts[j])))
		}
		p.missing = append(p.missing, t)
		base := len(p.tabs)
		p.tabs = append(p.tabs, make([]gf16.MulTable, k)...)
		for j := 0; j < k; j++ {
			gf16.MakeMulTable(row[j], &p.tabs[base+j])
		}
	}
	p.mem = len(p.tabs)*128 + len(p.missing)*8 + 2*k
	return p
}

// Package merkle implements the Merkle-tree cryptographic accumulator used
// by the paper's Π_ℓBA+ (Section 7): MT.BUILD compresses a sequence of
// values into a κ-bit root, and per-leaf witnesses of O(κ·log n) bits let
// any party verify that a value sits at a claimed position under a claimed
// root (MT.VERIFY).
//
// The tree shape follows RFC 6962: a list of size > 1 splits at the largest
// power of two strictly smaller than the size. Leaf and interior hashes are
// domain-separated, which (together with SHA-256's collision resistance)
// prevents an adversary from presenting an interior node as a leaf or
// forging witnesses for values it did not commit to.
package merkle

import (
	"errors"
	"fmt"

	"convexagreement/internal/hashing"
)

// Domain-separation prefixes (RFC 6962).
var (
	leafPrefix = []byte{0x00}
	nodePrefix = []byte{0x01}
)

// ErrBuild reports invalid Build input.
var ErrBuild = errors.New("merkle: cannot build tree")

// Tree is an immutable Merkle tree over a sequence of leaves. It retains all
// internal node hashes so witnesses are produced in O(log n) time.
type Tree struct {
	n      int
	leaves []hashing.Digest
	root   hashing.Digest
	// memo caches the interior subtree roots built during construction,
	// memo[mid-1] for the range split at mid: every interior range of the
	// RFC 6962 decomposition splits at its own point in 1..n−1 (the
	// boundary between leaves mid−1 and mid, whose lowest common ancestor
	// it is).
	memo []hashing.Digest
}

// Build constructs the tree for the given leaf values (the paper's
// MT.BUILD). It requires at least one leaf.
func Build(leaves [][]byte) (*Tree, error) {
	if len(leaves) == 0 {
		return nil, fmt.Errorf("%w: no leaves", ErrBuild)
	}
	t := &Tree{leaves: make([]hashing.Digest, len(leaves))}
	// One Hasher serves every leaf and interior node: a shared hash state
	// turns the one-shot Sum calls into allocation-free Reset/Write/Sum
	// cycles. The build runs on the calling party's goroutine, as the rest
	// of its round does.
	h := hashing.NewHasher()
	for i, leaf := range leaves {
		StartLeaf(h)
		h.Write(leaf)
		t.leaves[i] = h.Digest()
	}
	t.seal(h)
	return t, nil
}

// StartLeaf resets h to hash a leaf: the caller writes the leaf's bytes,
// in as many pieces as it likes, and h.Digest() is then the leaf digest
// Build computes for a leaf of those bytes — what Rebuild and VerifyLeaf
// take.
func StartLeaf(h *hashing.Hasher) {
	h.Reset()
	h.Write(leafPrefix)
}

// Rebuild makes t the tree over the leaves whose digests are given (see
// StartLeaf), reusing t's storage: a caller that commits value after value
// keeps its trees, and a zero Tree is ready for it. It requires at least
// one leaf; h is the Hasher it hashes the interior nodes with.
func (t *Tree) Rebuild(h *hashing.Hasher, leaves []hashing.Digest) error {
	if len(leaves) == 0 {
		return fmt.Errorf("%w: no leaves", ErrBuild)
	}
	t.leaves = append(t.leaves[:0], leaves...)
	t.seal(h)
	return nil
}

// seal hashes the interior nodes over t.leaves.
func (t *Tree) seal(h *hashing.Hasher) {
	t.n = len(t.leaves)
	if cap(t.memo) < t.n-1 {
		t.memo = make([]hashing.Digest, t.n-1)
	}
	t.memo = t.memo[:t.n-1]
	t.root = t.build(h, 0, t.n)
}

// N returns the number of leaves.
func (t *Tree) N() int { return t.n }

// Root returns the κ-bit accumulator value z.
func (t *Tree) Root() hashing.Digest { return t.root }

// split returns the RFC 6962 split point for a range of the given size: the
// largest power of two strictly smaller than size.
func split(size int) int {
	k := 1
	for k*2 < size {
		k *= 2
	}
	return k
}

// build hashes the subtree over [lo,hi) bottom-up, memoizing every interior
// range. The RFC 6962 decomposition visits each range exactly once, so no
// memo lookup is needed on the way down.
func (t *Tree) build(h *hashing.Hasher, lo, hi int) hashing.Digest {
	if hi-lo == 1 {
		return t.leaves[lo]
	}
	mid := lo + split(hi-lo)
	l := t.build(h, lo, mid)
	r := t.build(h, mid, hi)
	h.Reset()
	h.Write(nodePrefix)
	h.WriteDigest(l)
	h.WriteDigest(r)
	d := h.Digest()
	t.memo[mid-1] = d
	return d
}

// node returns the digest of the subtree over [lo,hi) without hashing:
// Build memoized every interior range in the decomposition, and those are
// exactly the ranges Witness walks, so this is always a hit.
func (t *Tree) node(lo, hi int) hashing.Digest {
	if hi-lo == 1 {
		return t.leaves[lo]
	}
	return t.memo[lo+split(hi-lo)-1]
}

// Witness returns the audit path for leaf i: the sibling hashes from the
// leaf to the root, leaf-adjacent first. This is the w_i of the paper, of
// size O(κ·log n).
func (t *Tree) Witness(i int) ([]hashing.Digest, error) {
	return t.AppendPath(nil, i)
}

// AppendPath appends leaf i's audit path, as Witness returns it, to dst: a
// caller that sends witness after witness reuses one slice.
func (t *Tree) AppendPath(dst []hashing.Digest, i int) ([]hashing.Digest, error) {
	if i < 0 || i >= t.n {
		return dst, fmt.Errorf("merkle: leaf index %d out of range [0,%d)", i, t.n)
	}
	return t.siblings(dst, i, 0, t.n), nil
}

// siblings appends the siblings on the way from leaf i up to the subtree
// over [lo,hi): the deeper levels first, then the sibling at this level.
func (t *Tree) siblings(dst []hashing.Digest, i, lo, hi int) []hashing.Digest {
	if hi-lo == 1 {
		return dst
	}
	mid := lo + split(hi-lo)
	if i < mid {
		return append(t.siblings(dst, i, lo, mid), t.node(mid, hi))
	}
	return append(t.siblings(dst, i, mid, hi), t.node(lo, mid))
}

// Verify is the paper's MT.VERIFY(z, i, s_i, w_i): it reports whether
// witness proves that value sits at leaf index i of an n-leaf tree whose
// root is root. It never panics, whatever the (possibly byzantine) inputs.
func Verify(root hashing.Digest, i, n int, value []byte, witness []hashing.Digest) bool {
	h := hashing.NewHasher() // shared across the log n path recomputations
	StartLeaf(h)
	h.Write(value)
	return VerifyLeaf(h, root, i, n, h.Digest(), witness)
}

// VerifyLeaf is Verify for a leaf given by its digest (see StartLeaf); h is
// the Hasher it recomputes the path with.
func VerifyLeaf(h *hashing.Hasher, root hashing.Digest, i, n int, leaf hashing.Digest, witness []hashing.Digest) bool {
	if i < 0 || i >= n || n < 1 {
		return false
	}
	digest, used, ok := recompute(h, i, 0, n, leaf, witness)
	return ok && used == len(witness) && digest == root
}

func recompute(h *hashing.Hasher, i, lo, hi int, leaf hashing.Digest, witness []hashing.Digest) (hashing.Digest, int, bool) {
	if hi-lo == 1 {
		return leaf, 0, true
	}
	mid := lo + split(hi-lo)
	var child hashing.Digest
	var used int
	var ok bool
	if i < mid {
		child, used, ok = recompute(h, i, lo, mid, leaf, witness)
	} else {
		child, used, ok = recompute(h, i, mid, hi, leaf, witness)
	}
	if !ok || used >= len(witness) {
		return hashing.Digest{}, 0, false
	}
	sib := witness[used]
	h.Reset()
	h.Write(nodePrefix)
	if i < mid {
		h.WriteDigest(child)
		h.WriteDigest(sib)
	} else {
		h.WriteDigest(sib)
		h.WriteDigest(child)
	}
	d := h.Digest()
	return d, used + 1, true
}

// AppendWitness appends the wire form of a witness to dst: its digests,
// concatenated.
func AppendWitness(dst []byte, w []hashing.Digest) []byte {
	for _, d := range w {
		dst = append(dst, d[:]...)
	}
	return dst
}

// UnmarshalWitness parses a witness from the wire, appending its digests to
// dst, so that a caller decoding witness after witness reuses one slice; it
// rejects lengths that are not a whole number of digests.
func UnmarshalWitness(dst []hashing.Digest, raw []byte) ([]hashing.Digest, bool) {
	if len(raw)%hashing.Size != 0 {
		return dst, false
	}
	for ; len(raw) > 0; raw = raw[hashing.Size:] {
		dst = append(dst, hashing.Digest(raw[:hashing.Size]))
	}
	return dst, true
}

package merkle

import (
	"fmt"
	"math/rand"
	"testing"

	"convexagreement/internal/hashing"
)

func leavesOf(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("leaf-%d-payload", i))
	}
	return out
}

func TestBuildRejectsEmpty(t *testing.T) {
	if _, err := Build(nil); err == nil {
		t.Error("empty leaf list accepted")
	}
	if err := new(Tree).Rebuild(hashing.NewHasher(), nil); err == nil {
		t.Error("Rebuild accepted an empty leaf list")
	}
}

// TestRebuildMatchesBuild: one Tree rebuilt over leaf digests hashed in
// pieces from StartLeaf, size after size — growing and shrinking — has
// Build's root and witnesses, and VerifyLeaf on a digest answers as Verify
// on the value, for the true leaf and a wrong one.
func TestRebuildMatchesBuild(t *testing.T) {
	h := hashing.NewHasher()
	var tree Tree
	for _, n := range []int{5, 1, 16, 7, 2, 33} {
		leaves := leavesOf(n)
		want, err := Build(leaves)
		if err != nil {
			t.Fatal(err)
		}
		digests := make([]hashing.Digest, n)
		for i, leaf := range leaves {
			StartLeaf(h)
			h.Write(leaf[:3])
			h.Write(leaf[3:])
			digests[i] = h.Digest()
		}
		if err := tree.Rebuild(h, digests); err != nil {
			t.Fatal(err)
		}
		if tree.Root() != want.Root() || tree.N() != n {
			t.Fatalf("n=%d: Rebuild's root differs from Build's", n)
		}
		for i := range n {
			w, err := tree.Witness(i)
			if err != nil {
				t.Fatal(err)
			}
			for j := range n {
				if got, exp := VerifyLeaf(h, want.Root(), i, n, digests[j], w), Verify(want.Root(), i, n, leaves[j], w); got != exp || got != (i == j) {
					t.Fatalf("n=%d: leaf %d's witness on leaf %d: VerifyLeaf %v, Verify %v", n, i, j, got, exp)
				}
			}
		}
	}
}

// TestWitnessVerifyAllSizes: every leaf's witness verifies at every size
// up to 70 — past 64, so the shapes include the unbalanced ones on either
// side of a power of two. A memo slot two interior ranges shared would
// hand one of them the other's digest, and some witness would fail.
func TestWitnessVerifyAllSizes(t *testing.T) {
	for n := 1; n <= 70; n++ {
		leaves := leavesOf(n)
		tree, err := Build(leaves)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			w, err := tree.Witness(i)
			if err != nil {
				t.Fatalf("n=%d i=%d: %v", n, i, err)
			}
			if !Verify(tree.Root(), i, n, leaves[i], w) {
				t.Fatalf("n=%d i=%d: valid witness rejected", n, i)
			}
		}
	}
}

// TestAppendPathAppends: AppendPath leaves what dst holds in place, appends
// Witness's path after it, and with room in dst allocates nothing; an index
// out of range is an error that hands dst back unchanged.
func TestAppendPathAppends(t *testing.T) {
	for _, n := range []int{1, 2, 7, 16, 33} {
		tree, err := Build(leavesOf(n))
		if err != nil {
			t.Fatal(err)
		}
		var mark hashing.Digest
		mark[0] = 0xff
		dst := make([]hashing.Digest, 1, 64)
		for i := range n {
			dst[0] = mark
			got, err := tree.AppendPath(dst, i)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := tree.Witness(i)
			if len(got) != 1+len(want) || got[0] != mark || &got[0] != &dst[0] {
				t.Fatalf("n=%d i=%d: AppendPath did not append in place: len %d, want 1+%d", n, i, len(got), len(want))
			}
			for k := range want {
				if got[1+k] != want[k] {
					t.Fatalf("n=%d i=%d: sibling %d differs from Witness's", n, i, k)
				}
			}
		}
		if allocs := testing.AllocsPerRun(10, func() { tree.AppendPath(dst[:0], n-1) }); allocs != 0 {
			t.Errorf("n=%d: AppendPath into a slice with room allocates %.0f times", n, allocs)
		}
		for _, i := range []int{-1, n} {
			if got, err := tree.AppendPath(dst[:1], i); err == nil || len(got) != 1 {
				t.Errorf("n=%d: AppendPath(%d) = %d digests, %v; want dst back and an error", n, i, len(got), err)
			}
		}
	}
}

func TestVerifyRejectsTampering(t *testing.T) {
	n := 13
	leaves := leavesOf(n)
	tree, _ := Build(leaves)
	root := tree.Root()
	w5, _ := tree.Witness(5)

	if Verify(root, 5, n, []byte("forged value"), w5) {
		t.Error("forged value accepted")
	}
	if Verify(root, 6, n, leaves[5], w5) {
		t.Error("wrong index accepted")
	}
	if n > 1 && Verify(root, 5, n, leaves[5], w5[:len(w5)-1]) {
		t.Error("truncated witness accepted")
	}
	long := append(append([]hashing.Digest{}, w5...), hashing.Digest{})
	if Verify(root, 5, n, leaves[5], long) {
		t.Error("padded witness accepted")
	}
	flipped := append([]hashing.Digest{}, w5...)
	flipped[0][0] ^= 1
	if Verify(root, 5, n, leaves[5], flipped) {
		t.Error("bit-flipped witness accepted")
	}
	var wrongRoot hashing.Digest
	if Verify(wrongRoot, 5, n, leaves[5], w5) {
		t.Error("wrong root accepted")
	}
	if Verify(root, -1, n, leaves[5], w5) || Verify(root, n, n, leaves[5], w5) {
		t.Error("out-of-range index accepted")
	}
	if Verify(root, 0, 0, leaves[0], nil) {
		t.Error("zero-size tree accepted")
	}
}

func TestCrossLeafWitnessFails(t *testing.T) {
	// A witness for leaf i must not verify another leaf's value even at the
	// correct position of that other leaf.
	n := 8
	leaves := leavesOf(n)
	tree, _ := Build(leaves)
	for i := 0; i < n; i++ {
		wi, _ := tree.Witness(i)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if Verify(tree.Root(), j, n, leaves[j], wi) {
				t.Fatalf("witness for %d verified leaf %d", i, j)
			}
		}
	}
}

func TestDistinctMultisetsDistinctRoots(t *testing.T) {
	// Collision-freeness in practice: permuting or altering leaves changes
	// the root.
	base := leavesOf(6)
	t1, _ := Build(base)

	swapped := leavesOf(6)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	t2, _ := Build(swapped)
	if t1.Root() == t2.Root() {
		t.Error("permuted leaves share a root")
	}

	altered := leavesOf(6)
	altered[3] = append(altered[3], 'x')
	t3, _ := Build(altered)
	if t1.Root() == t3.Root() {
		t.Error("altered leaf shares a root")
	}

	shorter, _ := Build(leavesOf(5))
	if t1.Root() == shorter.Root() {
		t.Error("different sizes share a root")
	}
}

func TestDeterministicBuild(t *testing.T) {
	a, _ := Build(leavesOf(17))
	b, _ := Build(leavesOf(17))
	if a.Root() != b.Root() {
		t.Error("same leaves produced different roots")
	}
}

func TestWitnessIndexRange(t *testing.T) {
	tree, _ := Build(leavesOf(4))
	if _, err := tree.Witness(-1); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := tree.Witness(4); err == nil {
		t.Error("overflow index accepted")
	}
}

func TestWitnessMarshalRoundTrip(t *testing.T) {
	tree, _ := Build(leavesOf(11))
	for i := 0; i < 11; i++ {
		w, _ := tree.Witness(i)
		raw := AppendWitness(nil, w)
		got, ok := UnmarshalWitness(nil, raw)
		if !ok {
			t.Fatalf("unmarshal failed for leaf %d", i)
		}
		if len(got) != len(w) {
			t.Fatalf("length mismatch for leaf %d", i)
		}
		for j := range w {
			if got[j] != w[j] {
				t.Fatalf("digest %d mismatch for leaf %d", j, i)
			}
		}
	}
	if _, ok := UnmarshalWitness(nil, make([]byte, hashing.Size+1)); ok {
		t.Error("ragged witness accepted")
	}
}

func TestWitnessSizeLogarithmic(t *testing.T) {
	// Witness size must be ≤ ⌈log2 n⌉ for every leaf (O(κ log n) bits).
	for _, n := range []int{1, 2, 3, 5, 16, 33, 100, 1000} {
		maxDepth := 0
		for k := 1; k < n; k *= 2 {
			maxDepth++
		}
		tree, err := Build(leavesOf(n))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i += 1 + n/17 {
			w, err := tree.Witness(i)
			if err != nil {
				t.Fatal(err)
			}
			if len(w) > maxDepth {
				t.Errorf("n=%d i=%d: witness size %d > %d", n, i, len(w), maxDepth)
			}
		}
	}
}

func TestLargeRandomLeaves(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := 257
	leaves := make([][]byte, n)
	for i := range leaves {
		leaves[i] = make([]byte, 1+rng.Intn(64))
		rng.Read(leaves[i])
	}
	tree, err := Build(leaves)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 100; trial++ {
		i := rng.Intn(n)
		w, _ := tree.Witness(i)
		if !Verify(tree.Root(), i, n, leaves[i], w) {
			t.Fatalf("leaf %d rejected", i)
		}
	}
}

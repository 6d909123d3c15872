package merkle

import (
	"testing"

	"convexagreement/internal/hashing"
)

// FuzzVerify throws arbitrary roots, indices, values and witness bytes at
// Verify: it must never panic, and must reject anything that is not the
// honestly produced proof.
func FuzzVerify(f *testing.F) {
	leaves := [][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d"), []byte("e")}
	tree, err := Build(leaves)
	if err != nil {
		f.Fatal(err)
	}
	w2, _ := tree.Witness(2)
	root := tree.Root()
	f.Add(root[:], 2, 5, []byte("c"), AppendWitness(nil, w2))
	f.Add([]byte{}, 0, 0, []byte{}, []byte{})
	f.Add(root[:], -3, 1<<20, []byte("x"), make([]byte, hashing.Size*3+1))

	f.Fuzz(func(t *testing.T, rootRaw []byte, i, n int, value, witnessRaw []byte) {
		rootD, okRoot := hashing.FromBytes(rootRaw)
		witness, okW := UnmarshalWitness(nil, witnessRaw)
		if !okRoot || !okW {
			return
		}
		ok := Verify(rootD, i, n, value, witness)
		// The only accepting combination reachable from the honest seed is
		// the honest proof itself.
		if ok && rootD == root && n == 5 {
			w, _ := tree.Witness(i)
			if string(value) != string(leaves[i]) || len(w) != len(witness) {
				t.Fatalf("forged acceptance: i=%d value=%q", i, value)
			}
		}
	})
}

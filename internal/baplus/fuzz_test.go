package baplus

import (
	"bytes"
	"testing"

	"convexagreement/internal/hashing"
	"convexagreement/internal/merkle"
)

// FuzzDecode drives the Π_ℓBA+ dispersal-tuple decoder with arbitrary
// bytes: it must never panic, must fail closed on malformed input, and any
// accepted parse must survive a canonical re-encode → re-decode round trip.
// Seeds are golden vectors from appendTuple, the exact producer whose output
// byzantine parties mutate on the wire.
func FuzzDecode(f *testing.F) {
	tree, err := merkle.Build([][]byte{[]byte("s0"), []byte("s1"), []byte("s2"), []byte("s3")})
	if err != nil {
		f.Fatal(err)
	}
	wit, err := tree.Witness(2)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(appendTuple(nil, 2, wit, []byte("s2")))
	f.Add(appendTuple(nil, 0, nil))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 20))

	f.Fuzz(func(t *testing.T, raw []byte) {
		var wit, wit2 []hashing.Digest
		idx, share, witness, ok := decodeTuple(raw, &wit)
		if !ok {
			return
		}
		if idx < 0 {
			t.Fatalf("accepted negative index %d", idx)
		}
		idx2, share2, witness2, ok2 := decodeTuple(appendTuple([]byte{0xDB}, idx, witness, share)[1:], &wit2)
		if !ok2 || idx2 != idx || !bytes.Equal(share2, share) || len(witness2) != len(witness) {
			t.Fatalf("re-encode round trip diverged: ok=%v idx %d→%d", ok2, idx, idx2)
		}
		for i := range witness2 {
			if witness2[i] != witness[i] {
				t.Fatalf("witness digest %d changed across round trip", i)
			}
		}
	})
}

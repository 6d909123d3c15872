package baplus

import (
	"errors"
	"fmt"

	"convexagreement/internal/hashing"
	"convexagreement/internal/merkle"
	"convexagreement/internal/rs"
	"convexagreement/internal/transport"
	"convexagreement/internal/wire"
)

// ErrDispersal reports a violated protocol guarantee during the
// distributing step of Π_ℓBA+ (it cannot happen when fewer than n/3 parties
// are corrupted and the hash is collision-free; surfacing it loudly beats
// silently disagreeing).
var ErrDispersal = errors.New("baplus: value dispersal failed")

// Long runs Π_ℓBA+ (Theorem 1): Byzantine Agreement on arbitrary-length
// values with Intrusion Tolerance and Bounded Pre-Agreement, at a cost of
// O(ℓn + κ·n²·log n) bits plus the Π_BA invocations inside Π_BA+.
//
// Each party Reed-Solomon-encodes its input into n shares with
// reconstruction threshold n−t, commits to them in a Merkle tree, agrees on
// a root z* via Plus, and then the shares of the agreed value are dispersed
// and re-broadcast so every party can erasure-decode it. Returns
// (value, true) or (nil, false) for ⊥.
func Long(env transport.Net, tag string, input []byte) ([]byte, bool, error) {
	n, t := env.N(), env.T()
	// One codec per (n, t) for the whole process: its tables, decode plans
	// and scratch outlive this instance (rs.SharedCodec).
	codec, err := rs.SharedCodec(n, n-t)
	if err != nil {
		return nil, false, fmt.Errorf("baplus: %w", err)
	}
	// Step 1: encode and commit.
	shares, err := codec.Encode(input)
	if err != nil {
		return nil, false, fmt.Errorf("baplus: %w", err)
	}
	leaves := make([][]byte, n)
	for i, sh := range shares {
		leaves[i] = sh.Data
	}
	tree, err := merkle.Build(leaves)
	if err != nil {
		return nil, false, fmt.Errorf("baplus: %w", err)
	}
	z := tree.Root()

	// Step 2: agree on a root.
	zStarRaw, ok, err := Plus(env, tag+"/root", z[:])
	if err != nil {
		return nil, false, err
	}
	if !ok {
		return nil, false, nil
	}
	zStar, wellFormed := hashing.FromBytes(zStarRaw)
	if !wellFormed {
		// Intrusion Tolerance makes the agreed root an honest party's
		// digest, which is always κ bits; defense in depth only.
		return nil, false, fmt.Errorf("%w: agreed root has %d bytes", ErrDispersal, len(zStarRaw))
	}

	// Step 3, round A: holders of the agreed value send each party its
	// share and witness.
	var out []transport.Packet
	if zStar == z {
		for j := 0; j < n; j++ {
			w, err := tree.Witness(j)
			if err != nil {
				return nil, false, fmt.Errorf("baplus: %w", err)
			}
			out = append(out, transport.Packet{
				To:      transport.PartyID(j),
				Tag:     tag + "/shareout",
				Payload: encodeTuple(j, shares[j].Data, w),
			})
		}
	}
	in, err := env.Exchange(out)
	if err != nil {
		return nil, false, err
	}
	// Keep the first tuple that verifies for our own index.
	myIdx := int(env.ID())
	var myShare []byte
	var myWitness []hashing.Digest
	for _, m := range in {
		idx, data, w, decodeOK := decodeTuple(m.Payload)
		if !decodeOK || idx != myIdx {
			continue
		}
		if merkle.Verify(zStar, idx, n, data, w) {
			myShare, myWitness = data, w
			break
		}
	}

	// Step 3, round B: re-broadcast our verified share; collect everyone
	// else's, discarding anything that fails verification.
	if myShare != nil {
		in, err = transport.ExchangeAll(env, tag+"/sharerelay", encodeTuple(myIdx, myShare, myWitness))
	} else {
		in, err = env.Exchange(nil)
	}
	if err != nil {
		return nil, false, err
	}
	// Index the collected shares by position rather than through a map: idx
	// is bounds-checked before use (byzantine tuples carry arbitrary
	// indices), and walking the slice in ascending order feeds the codec
	// pre-sorted shares, which its selection fast path rewards.
	collected := make([][]byte, n)
	count := 0
	for _, m := range in {
		idx, data, w, decodeOK := decodeTuple(m.Payload)
		if !decodeOK || idx < 0 || idx >= n || collected[idx] != nil {
			continue
		}
		if merkle.Verify(zStar, idx, n, data, w) {
			collected[idx] = data
			count++
		}
	}
	decodeShares := make([]rs.Share, 0, count)
	for idx, data := range collected {
		if data != nil {
			decodeShares = append(decodeShares, rs.Share{Index: idx, Data: data})
		}
	}
	value, err := codec.Decode(decodeShares)
	if err != nil {
		return nil, false, fmt.Errorf("%w: %v", ErrDispersal, err)
	}
	return value, true, nil
}

// encodeTuple frames (index, share, witness) for the dispersal rounds.
func encodeTuple(idx int, share []byte, witness []hashing.Digest) []byte {
	w := wire.NewWriter(8 + len(share) + len(witness)*hashing.Size)
	w.Uvarint(uint64(idx))
	w.Bytes(share)
	w.Bytes(merkle.MarshalWitness(witness))
	return w.Finish()
}

// decodeTuple parses a dispersal tuple; ok=false on any malformation.
func decodeTuple(raw []byte) (idx int, share []byte, witness []hashing.Digest, ok bool) {
	r := wire.NewReader(raw)
	idx = r.Int()
	share = r.Bytes()
	wraw := r.Bytes()
	if r.Close() != nil {
		return 0, nil, nil, false
	}
	witness, wOK := merkle.UnmarshalWitness(wraw)
	if !wOK {
		return 0, nil, nil, false
	}
	return idx, share, witness, true
}

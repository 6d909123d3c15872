package baplus

import (
	"bytes"
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
// O(ℓn + κ·n²·log n) bits plus the Π_BA invocations inside Π_BA+. It is the
// one-lane call of LongLanes and returns (value, true), or (nil, false) for
// ⊥. The value borrows nothing: it is a fresh slice.
func Long(env transport.Net, tag string, input []byte) ([]byte, bool, error) {
	lane, value, err := LongLanes(env, tag, 1, func(int) []byte { return input })
	return value, lane == 0, err
}

// A lane's Π_BA+ input is tagged with what it carries. A value no longer
// than a Merkle root is agreed on as itself — Π_ℓBA+ on ℓ ≤ κ bits is Π_BA+
// on the value, with no commitment and no dispersal — and a longer one as
// the root of its encoding. Each party tags its own input, so callers need
// not agree on lengths: the tag of the agreed input tells every honest party
// alike which kind it is.
const (
	laneValue byte = iota
	laneRoot
)

// LongLanes runs k independent instances of Π_ℓBA+ in the rounds of one
// and delivers the value of one of them. Each party Reed-Solomon-encodes
// every lane's input longer than a root into n shares with reconstruction
// threshold n−t and commits to them in a Merkle tree, the k roots (or short
// values) are agreed on by one batched Π_BA+, and then only j*, the highest
// lane that agreed, is delivered: its value as agreed, or, for a root, by
// the dispersal — its shares are sent and re-broadcast so every party can
// erasure-decode lane j*'s value. It returns (j*, value), or (−1, nil) when
// every lane agreed on ⊥. What lane j agreed on is Π_ℓBA+ on lane j's
// inputs; the lanes below j* are not reported. All honest parties must call
// it in the same round with the same tag and the same k.
//
// Lane j's input is input(j), and need only stay valid until the next call
// of input: one buffer can hold every lane's value in turn. The lanes are
// committed one at a time, from the highest lane down (in FINDPREFIX the
// largest segment first, so that buffer and the codec's scratch grow
// once), into one share buffer; only the roots are kept. The encoding left
// in the buffer is the lowest committed lane's, which the dispersal uses as
// it is when that lane is j*; for any other j* the holders call input(j*)
// again and re-derive its shares into the same buffer.
func LongLanes(env transport.Net, tag string, k int, input func(j int) []byte) (int, []byte, error) {
	n, t := env.N(), env.T()
	// One codec per (n, t) for the whole process: its tables, decode plans
	// and scratch outlive this instance (rs.SharedCodec).
	codec, err := rs.SharedCodec(n, n-t)
	if err != nil {
		return -1, nil, fmt.Errorf("baplus: %w", err)
	}
	// Step 1: encode and commit, lane by lane; short values go as they are.
	var buf []byte
	var shares []rs.Share
	var tree *merkle.Tree
	encoded := -1 // the lane whose shares buf holds
	frames := make([][]byte, k)
	for j := k - 1; j >= 0; j-- {
		in := input(j)
		if len(in) <= hashing.Size {
			frames[j] = append([]byte{laneValue}, in...)
			continue
		}
		if shares, tree, err = commit(codec, &buf, in); err != nil {
			return -1, nil, err
		}
		root := tree.Root()
		frames[j], encoded = append([]byte{laneRoot}, root[:]...), j
	}

	// Step 2: agree on the roots and short values.
	agreed, err := plus(env, tag+"/root", frames)
	if err != nil {
		return -1, nil, err
	}
	lane := len(agreed) - 1
	for lane >= 0 && agreed[lane] == nil {
		lane--
	}
	if lane < 0 {
		return -1, nil, nil
	}
	// Intrusion Tolerance makes the agreed input an honest party's tagged
	// value or digest; anything else is defense in depth only.
	got, _ := wire.Option(agreed[lane])
	if len(got) > 0 && got[0] == laneValue {
		return lane, got[1:], nil
	}
	if len(got) == 0 || got[0] != laneRoot {
		return -1, nil, fmt.Errorf("%w: agreed lane input is neither a value nor a root", ErrDispersal)
	}
	zStar, wellFormed := hashing.FromBytes(got[1:])
	if !wellFormed {
		return -1, nil, fmt.Errorf("%w: agreed root has %d bytes", ErrDispersal, len(got)-1)
	}

	// Step 3, round A: holders of the agreed value send each party its
	// share and witness.
	var out []transport.Packet
	if bytes.Equal(frames[lane], got) {
		if lane != encoded {
			if shares, tree, err = commit(codec, &buf, input(lane)); err != nil {
				return -1, nil, err
			}
		}
		for j := 0; j < n; j++ {
			w, err := tree.Witness(j)
			if err != nil {
				return -1, nil, fmt.Errorf("baplus: %w", err)
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
		return -1, nil, err
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
		return -1, nil, err
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
		return -1, nil, fmt.Errorf("%w: %v", ErrDispersal, err)
	}
	return lane, value, nil
}

// commit is step 1 for one value: its n shares, carved from *buf (grown
// first if it cannot hold them), and their Merkle tree.
func commit(codec *rs.Codec, buf *[]byte, input []byte) ([]rs.Share, *merkle.Tree, error) {
	if size := codec.N() * codec.ShareSize(len(input)); cap(*buf) < size {
		*buf = make([]byte, size)
	}
	shares, err := codec.EncodeTo(*buf, input)
	if err != nil {
		return nil, nil, fmt.Errorf("baplus: %w", err)
	}
	leaves := make([][]byte, len(shares))
	for i, sh := range shares {
		leaves[i] = sh.Data
	}
	tree, err := merkle.Build(leaves)
	if err != nil {
		return nil, nil, fmt.Errorf("baplus: %w", err)
	}
	return shares, tree, nil
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

package baplus

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"convexagreement/internal/ba"
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
// one-lane call of LongLanes on a fresh set of Buffers and returns
// (value, true), or (nil, false) for ⊥. The value borrows nothing the
// caller has to give back: it lives in that fresh set.
func Long(env transport.Net, tag string, input []byte) ([]byte, bool, error) {
	lane, value, err := LongLanes(env, tag, 1, func(int) []byte { return input }, nil)
	return value, lane == 0, err
}

// Buffers is what Π_ℓBA+ and Π_BA+ keep between calls, owned by the
// caller. Of long values: the share buffer every lane is encoded into, in
// which the dispersal also reassembles the delivered value, and the
// codec's Scratch, allocated with the first long value, so lanes of at most
// a root's length never touch it. Of the dispersal: round A's n share-out
// tuples, appended into one buffer and carved into per-peer payloads, round
// B's relay tuple, in a second buffer, and the round-B scratch — the shares
// collected, as views of the inbox, and the witness each received tuple is
// unmarshalled into. Of the protocol's rounds: the lanes' tagged inputs,
// Π_BA+'s frames, votes, candidates and results, and the work set of the BA
// instances below it (ba.Work), whose fan-out carries the dispersal's
// rounds too. Its buffers grow to the largest call seen and are then
// rewritten in place, call after call. The zero value is ready; a nil
// *Buffers is a fresh set for one call.
//
// The two tuple buffers follow ba.Work's send-buffer rule: in-process
// transports deliver by reference, so a receiver reads a tuple — and keeps
// its share as myShare, to relay it — from the sender's buffer until it
// enters the next round. Round A and round B each have their own buffer,
// and neither is rewritten before the next call's dispersal, rounds of
// Π_BA+ later.
type Buffers struct {
	shares []byte
	rs     *rs.Scratch
	work   ba.Work

	// The dispersal: round A's tuples, round B's, the shares collected and
	// handed to the codec, and a received tuple's witness.
	shareout, relay []byte
	collected       [][]byte
	decoded         []rs.Share
	witness         []hashing.Digest

	// LongLanes: each lane's tagged input, a view of tagged.
	inputs [][]byte
	tagged []byte
	// plus: a round's lane frames, then the candidates a₁ b₁ …, views of
	// frameBuf; atLeast's values; the confirming phase-king's inputs; the
	// results.
	frames   [][]byte
	frameBuf []byte
	voted    [][]byte
	happy    []byte
	agreed   [][]byte
}

func (b *Buffers) scratch() *rs.Scratch {
	if b.rs == nil {
		b.rs = new(rs.Scratch)
	}
	return b.rs
}

// Work is the set's BA work set, for the instances its caller runs itself
// (Π_ℤ's length search).
func (b *Buffers) Work() *ba.Work { return &b.work }

// Reset ends an agreement's use of b: the containers that hold views of a
// round's inbox are cleared, so the set pins none after the agreement.
func (b *Buffers) Reset() {
	for _, c := range [][][]byte{b.inputs, b.frames, b.voted, b.agreed, b.collected} {
		clear(c[:cap(c)])
	}
	clear(b.decoded[:cap(b.decoded)])
	b.work.Reset()
}

// Scribble overwrites with 0xDB every byte the next call may rewrite: the
// share buffer, where values are delivered, the tuple buffers, the frame
// buffers and the work set's (ba.Work.Scribble). Tests call it between
// agreements — past the dispersal's rounds, whose receivers read the tuple
// buffers — so that a value kept past the call that delivered it reads as
// garbage.
func (b *Buffers) Scribble() {
	for _, p := range [][]byte{b.shares, b.shareout, b.relay, b.tagged, b.frameBuf, b.happy} {
		p = p[:cap(p)]
		for i := range p {
			p[i] = 0xDB
		}
	}
	b.work.Scribble()
}

// fresh is the set of a call given none, made out of line on the heap
// (ba.Work's fresh says why).
//
//go:noinline
func fresh() *Buffers { return new(Buffers) }

// resize returns *p at length k, reallocated only when it lacks the room.
func resize[T any](p *[]T, k int) []T {
	if cap(*p) < k {
		*p = make([]T, k)
	}
	*p = (*p)[:k]
	return *p
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
// largest segment first, so that b's buffers grow once), into b's share
// buffer; only the roots are kept. The encoding left in the buffer is the
// lowest committed lane's, which the dispersal uses as it is when that lane
// is j*; for any other j* the holders call input(j*) again and re-derive
// its shares into the same buffer. A value delivered by the dispersal is
// reassembled in that buffer too; either way the value returned is a view
// of b valid until b's next use.
func LongLanes(env transport.Net, tag string, k int, input func(j int) []byte, b *Buffers) (int, []byte, error) {
	if b == nil {
		b = fresh()
	}
	n, t := env.N(), env.T()
	// One codec per (n, t) for the whole process: its tables, decode plans
	// and scratch outlive this instance (rs.SharedCodec).
	codec, err := rs.SharedCodec(n, n-t)
	if err != nil {
		return -1, nil, fmt.Errorf("baplus: %w", err)
	}
	// Step 1: encode and commit, lane by lane; short values go as they are.
	var shares []rs.Share
	var tree *merkle.Tree
	encoded := -1 // the lane whose shares buf holds
	frames, buf := resize(&b.inputs, k), b.tagged[:0]
	for j := k - 1; j >= 0; j-- {
		in, mark := input(j), len(buf)
		if len(in) <= hashing.Size {
			buf = append(append(buf, laneValue), in...)
		} else {
			if shares, tree, err = commit(codec, b, in); err != nil {
				return -1, nil, err
			}
			root := tree.Root()
			buf, encoded = append(append(buf, laneRoot), root[:]...), j
		}
		frames[j] = buf[mark:]
	}
	b.tagged = buf

	// Step 2: agree on the roots and short values.
	agreed, err := plus(env, tag+"/root", frames, b)
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
			if shares, tree, err = commit(codec, b, input(lane)); err != nil {
				return -1, nil, err
			}
		}
		out = resize(b.work.Fan(), n)
		shareout := tag + "/shareout"
		// Room for every tuple up front (a witness has at most ⌈log₂ n⌉
		// digests), so that the payloads carved as they are appended stay
		// in one array.
		buf := slices.Grow(b.shareout[:0], n*(3*binary.MaxVarintLen64+len(shares[0].Data)+bits.Len(uint(n))*hashing.Size))
		for j := range out {
			w, err := tree.Witness(j)
			if err != nil {
				return -1, nil, fmt.Errorf("baplus: %w", err)
			}
			mark := len(buf)
			buf = appendTuple(buf, j, shares[j].Data, w)
			out[j] = transport.Packet{To: transport.PartyID(j), Tag: shareout, Payload: buf[mark:len(buf):len(buf)]}
		}
		b.shareout = buf
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
		idx, data, w, decodeOK := decodeTuple(m.Payload, &b.witness)
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
		b.relay = appendTuple(b.relay[:0], myIdx, myShare, myWitness)
		in, err = transport.ExchangeAll(env, tag+"/sharerelay", b.relay, b.work.Fan())
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
	collected := resize(&b.collected, n)
	clear(collected)
	for _, m := range in {
		idx, data, w, decodeOK := decodeTuple(m.Payload, &b.witness)
		if !decodeOK || idx < 0 || idx >= n || collected[idx] != nil {
			continue
		}
		if merkle.Verify(zStar, idx, n, data, w) {
			collected[idx] = data
		}
	}
	decodeShares := b.decoded[:0]
	for idx, data := range collected {
		if data != nil {
			decodeShares = append(decodeShares, rs.Share{Index: idx, Data: data})
		}
	}
	b.decoded = decodeShares
	// Our own shares went out copied, in the tuples, so the share buffer is
	// free to take the reassembled value.
	value, err := codec.DecodeTo(b.scratch(), b.shares, decodeShares)
	if err != nil {
		return -1, nil, fmt.Errorf("%w: %v", ErrDispersal, err)
	}
	return lane, value, nil
}

// commit is step 1 for one value: its n shares, carved from b's share
// buffer (grown first if it cannot hold them), and their Merkle tree.
func commit(codec *rs.Codec, b *Buffers, input []byte) ([]rs.Share, *merkle.Tree, error) {
	if size := codec.N() * codec.ShareSize(len(input)); cap(b.shares) < size {
		b.shares = make([]byte, size)
	}
	shares, err := codec.EncodeTo(b.scratch(), b.shares, input)
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

// appendTuple appends the dispersal tuple (index, share, witness) to dst:
// the index as a uvarint, then the share and the witness, each
// length-prefixed.
func appendTuple(dst []byte, idx int, share []byte, witness []hashing.Digest) []byte {
	dst = wire.AppendBytes(binary.AppendUvarint(dst, uint64(idx)), share)
	dst = binary.AppendUvarint(dst, uint64(len(witness)*hashing.Size))
	return merkle.AppendWitness(dst, witness)
}

// decodeTuple parses a dispersal tuple; ok=false on any malformation. The
// share is a view of raw, the witness is unmarshalled into *wit's storage:
// both are valid until the next decode into *wit.
func decodeTuple(raw []byte, wit *[]hashing.Digest) (idx int, share []byte, witness []hashing.Digest, ok bool) {
	r := wire.NewReader(raw)
	idx = r.Int()
	share = r.Bytes()
	wraw := r.Bytes()
	if r.Close() != nil {
		return 0, nil, nil, false
	}
	witness, wOK := merkle.UnmarshalWitness((*wit)[:0], wraw)
	if !wOK {
		return 0, nil, nil, false
	}
	*wit = witness
	return idx, share, witness, true
}

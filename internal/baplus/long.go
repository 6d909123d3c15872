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
// O(ℓn + κ·n²·log n) bits plus the Π_BA invocations inside Π_BA+. It is
// LongLanes' body on one lane, whose input is input as it is, on a fresh
// set of Buffers, and returns (value, true), or (nil, false) for ⊥. The
// value borrows nothing the caller has to give back: it lives in that
// fresh set.
func Long(env transport.Net, tag string, input []byte) ([]byte, bool, error) {
	lane, value, err := longLanes(env, tag, &lanes{window: input}, fresh())
	return value, lane == 0, err
}

// Buffers is what Π_ℓBA+ and Π_BA+ keep between calls, owned by the
// caller. Of long values: the share buffer the widest lane is encoded
// into, in which the dispersal also reassembles the delivered value, the
// edge buffer that holds the stripes of each narrower lane that differ
// from the widest's, every committed lane's Merkle tree, and the codec's
// Scratch, allocated with the first long value, so lanes of at most a
// root's length never touch it. Of the dispersal: round A's n share-out
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
	// The widest lane's n shares, one after the other (commitSet.width
	// bytes each), then the delivered value; the codec's Scratch; the rest
	// of the commitments, made with the first lane longer than a root.
	shares []byte
	rs     *rs.Scratch
	cs     *commitSet
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

// commitSet is the part of step 1's state that only values longer than a
// root use: the width of the widest lane's shares and the stripes of a
// share's head, the narrower lanes' edges, each lane's commitment, the
// share views an encode writes through, the leaf digests a tree is built
// from, the hash, and the stripes the last call encoded. A party whose
// lanes are all short never makes one.
type commitSet struct {
	width   int
	head    int
	edges   []byte
	commits []commitment
	views   []rs.Share
	leaves  []hashing.Digest
	hash    *hashing.Hasher
	encoded int
}

func (b *Buffers) set() *commitSet {
	if b.cs == nil {
		b.cs = &commitSet{hash: hashing.NewHasher()}
	}
	return b.cs
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
	if cs := b.cs; cs != nil {
		clear(cs.views[:cap(cs.views)])
		commits := cs.commits[:cap(cs.commits)]
		for i := range commits {
			commits[i].edge = nil
		}
	}
	b.work.Reset()
}

// Scribble overwrites with 0xDB every byte the next call may rewrite: the
// share and edge buffers, where values are delivered and lanes encoded,
// the tuple buffers, the frame buffers and the work set's
// (ba.Work.Scribble). Tests call it between agreements — past the
// dispersal's rounds, whose receivers read the tuple buffers — so that a
// value kept past the call that delivered it reads as garbage.
func (b *Buffers) Scribble() {
	var edges []byte
	if b.cs != nil {
		edges = b.cs.edges
	}
	for _, p := range [][]byte{b.shares, edges, b.shareout, b.relay, b.tagged, b.frameBuf, b.happy} {
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

// lanes are the inputs of one call, prefixes of one window. For LongLanes
// the window is a marshalled bitstring — bitstr.Marshal's form: its bit
// count in four big-endian bytes, then the bits packed MSB first with the
// padding cleared — and lane j's input is its first ends[j] bits in the
// same form, so each lane is a prefix of the next by construction. For
// Long ends is nil and the one lane's input is the window as it is.
type lanes struct {
	window []byte
	ends   []int
	// What input rewrote: the window's bit count, and its byte at last.
	count [4]byte
	last  int
	was   byte
}

func (l *lanes) k() int {
	if l.ends == nil {
		return 1
	}
	return len(l.ends)
}

// input returns lane j's input as a view of the window, which it rewrites
// in place for the purpose: the lane's bit count over the window's, and
// the bits past the lane's end cleared in its last byte. restore undoes
// both, and comes before the next input.
func (l *lanes) input(j int) []byte {
	if l.ends == nil {
		return l.window
	}
	e := l.ends[j]
	size := 4 + (e+7)/8
	l.last, l.was = size-1, l.window[size-1]
	copy(l.count[:], l.window)
	binary.BigEndian.PutUint32(l.window, uint32(e))
	l.window[size-1] &^= byte(1)<<(uint(-e)&7) - 1
	return l.window[:size]
}

func (l *lanes) restore() {
	if l.ends != nil {
		l.window[l.last] = l.was
		copy(l.window, l.count[:])
	}
}

// LongLanes runs k = len(ends) independent instances of Π_ℓBA+ in the
// rounds of one and delivers the value of one of them. Lane j's input is
// the first ends[j] bits of window, a marshalled bitstring (bitstr.Marshal),
// marshalled the same way; the ends must not decrease, so each lane is a
// prefix of the next. Each party Reed-Solomon-encodes every lane's input
// longer than a root into n shares with reconstruction threshold n−t and
// commits to them in a Merkle tree, the k roots (or short values) are
// agreed on by one batched Π_BA+, and then only j*, the highest lane that
// agreed, is delivered: its value as agreed, or, for a root, by the
// dispersal — its shares are sent and re-broadcast so every party can
// erasure-decode lane j*'s value. It returns (j*, value), or (−1, nil) when
// every lane agreed on ⊥. What lane j agreed on is Π_ℓBA+ on lane j's
// inputs; the lanes below j* are not reported. All honest parties must call
// it in the same round with the same tag and the same k.
//
// The lanes share their encoding: the widest is encoded in full into b's
// share buffer, and each narrower lane encodes only the stripes in which
// its grid differs from the widest's into b's edge buffer (commit). Every
// lane's tree is kept, and j*'s shares are sent from the two buffers with
// no second encode.
// LongLanes rewrites window while it runs and leaves it as it found it. A
// value delivered by the dispersal is reassembled in the share buffer;
// either way the value returned is a view of b valid until b's next use.
func LongLanes(env transport.Net, tag string, window []byte, ends []int, b *Buffers) (int, []byte, error) {
	if len(window) < 4 || uint64(len(window)-4) != (uint64(binary.BigEndian.Uint32(window))+7)/8 {
		return -1, nil, fmt.Errorf("baplus: a window of %d bytes is no marshalled bitstring", len(window))
	}
	prev, width := 0, int(binary.BigEndian.Uint32(window))
	for _, e := range ends {
		if e < prev || e > width {
			return -1, nil, fmt.Errorf("baplus: lane ends %v are not nested in a %d-bit window", ends, width)
		}
		prev = e
	}
	if b == nil {
		b = fresh()
	}
	return longLanes(env, tag, &lanes{window: window, ends: ends}, b)
}

// longLanes is the body of Long and LongLanes.
func longLanes(env transport.Net, tag string, ls *lanes, b *Buffers) (int, []byte, error) {
	n, t := env.N(), env.T()
	// One codec per (n, t) for the whole process: its tables, decode plans
	// and scratch outlive this instance (rs.SharedCodec).
	codec, err := rs.SharedCodec(n, n-t)
	if err != nil {
		return -1, nil, fmt.Errorf("baplus: %w", err)
	}
	// Step 1: encode and commit, lane by lane; short values go as they are.
	frames, err := b.commit(codec, ls)
	if err != nil {
		return -1, nil, err
	}

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
		c := &b.cs.commits[lane]
		out = resize(b.work.Fan(), n)
		shareout := tag + "/shareout"
		// Room for every tuple up front (a witness has at most ⌈log₂ n⌉
		// digests), so that the payloads carved as they are appended stay
		// in one array.
		buf := slices.Grow(b.shareout[:0], n*(3*binary.MaxVarintLen64+2*c.stripes+bits.Len(uint(n))*hashing.Size))
		for j := range out {
			w, err := c.tree.Witness(j)
			if err != nil {
				return -1, nil, fmt.Errorf("baplus: %w", err)
			}
			head, body, tail := b.share(c, j)
			mark := len(buf)
			buf = appendTuple(buf, j, w, head, body, tail)
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
		if b.verify(zStar, idx, n, data, w) {
			myShare, myWitness = data, w
			break
		}
	}

	// Step 3, round B: re-broadcast our verified share; collect everyone
	// else's, discarding anything that fails verification.
	if myShare != nil {
		b.relay = appendTuple(b.relay[:0], myIdx, myWitness, myShare)
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
		if b.verify(zStar, idx, n, data, w) {
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

// A commitment is step 1's outcome for one lane longer than a root: its
// grid's stripe count, its Merkle tree, and where its shares lie. Share i
// is head ‖ body ‖ tail: head is stripes [0, h), h = commitSet.head, the
// ones that hold the two lengths; tail is stripes [m, stripes), the last
// one past the head; body is the stripes between, bytes [2h, 2m) of the
// widest lane's share i. The widest lane's head and tail lie in its share
// with its body; a narrower lane's are its own, n of them one after the
// other in edge.
type commitment struct {
	stripes, m int
	edge       []byte
	tree       merkle.Tree
}

// share returns the three pieces of share i of c.
func (b *Buffers) share(c *commitment, i int) (head, body, tail []byte) {
	h := b.cs.head
	row := b.shares[i*b.cs.width : (i+1)*b.cs.width]
	body = row[2*h : 2*c.m]
	if c.edge == nil {
		return row[:2*h], body, row[2*c.m : 2*c.stripes]
	}
	e := 2 * (h + c.stripes - c.m)
	edge := c.edge[i*e : (i+1)*e]
	return edge[:2*h], body, edge[2*h:]
}

// commit is step 1: it tags each lane's input, from the highest lane down,
// and commits to every input longer than a root, in b.cs.commits. The highest
// such lane is the widest, and is encoded in full into the share buffer.
// A lower one is a prefix of it: its grid — the codec's length, the
// bitstring's bit count, the bits, zero padding — differs from the widest's
// only in the stripes that hold the two lengths and in its last stripe,
// which holds its last byte and the padding after it. Only those are
// encoded, into the lane's edge; every other stripe is the widest lane's,
// where it is. On Long's one lane the widest is the only one.
func (b *Buffers) commit(codec *rs.Codec, ls *lanes) ([][]byte, error) {
	n, k := codec.N(), ls.k()
	// The stripes a 4-byte payload fills are the ones that hold the two
	// lengths; a narrower lane's edge holds them and one more.
	head := codec.ShareSize(4) / 2
	frames, buf := resize(&b.inputs, k), b.tagged[:0]
	if b.cs != nil {
		b.cs.encoded = 0
	}
	wide := true
	for j := k - 1; j >= 0; j-- {
		in, mark := ls.input(j), len(buf)
		if len(in) <= hashing.Size {
			buf = append(append(buf, laneValue), in...)
		} else {
			cs := b.set()
			if wide {
				cs.head = head
				resize(&cs.commits, k)
				resize(&cs.edges, k*n*2*(head+1))
			}
			c := &cs.commits[j]
			if err := b.encode(codec, c, in, wide, cs.edges[j*n*2*(head+1):], head); err != nil {
				ls.restore()
				return nil, err
			}
			wide = false
			root := c.tree.Root()
			buf = append(append(buf, laneRoot), root[:]...)
		}
		ls.restore()
		frames[j] = buf[mark:]
	}
	b.tagged = buf
	return frames, nil
}

// encode is commit for one lane longer than a root: it encodes in into
// c's shares — in full into the share buffer if the lane is the widest,
// its head and tail into edge otherwise — and builds c's tree over them.
// The lane's grid has at least head stripes: its input is longer than the
// 4 bytes that fill them.
func (b *Buffers) encode(codec *rs.Codec, c *commitment, in []byte, wide bool, edge []byte, head int) error {
	n := codec.N()
	c.stripes = codec.ShareSize(len(in)) / 2
	c.m = max(head, c.stripes-1)
	cs := b.cs
	views := resize(&cs.views, n)
	// run encodes the stripes from st0 into the views.
	run := func(st0 int) error {
		if err := codec.EncodeStripes(b.scratch(), views, in, st0); err != nil {
			return fmt.Errorf("baplus: %w", err)
		}
		cs.encoded += len(views[0].Data) / 2
		return nil
	}
	if wide {
		cs.width = 2 * c.stripes
		if cap(b.shares) < n*cs.width {
			b.shares = make([]byte, n*cs.width)
		}
		c.edge = nil
		for i := range views {
			views[i] = rs.Share{Index: i, Data: b.shares[i*cs.width : (i+1)*cs.width]}
		}
		if err := run(0); err != nil {
			return err
		}
	} else {
		e := 2 * (head + c.stripes - c.m)
		c.edge = edge[:n*e]
		for i := range views {
			views[i] = rs.Share{Index: i, Data: c.edge[i*e : i*e+2*head]}
		}
		if err := run(0); err != nil {
			return err
		}
		if c.m < c.stripes {
			for i := range views {
				views[i].Data = c.edge[i*e+2*head : (i+1)*e]
			}
			if err := run(c.m); err != nil {
				return err
			}
		}
	}
	leaves := resize(&cs.leaves, n)
	for i := range leaves {
		head, body, tail := b.share(c, i)
		leaves[i] = leaf(cs.hash, head, body, tail)
	}
	if err := c.tree.Rebuild(cs.hash, leaves); err != nil {
		return fmt.Errorf("baplus: %w", err)
	}
	return nil
}

// leaf is the leaf digest of the share head ‖ body ‖ tail.
func leaf(h *hashing.Hasher, head, body, tail []byte) hashing.Digest {
	merkle.StartLeaf(h)
	h.Write(head)
	h.Write(body)
	h.Write(tail)
	return h.Digest()
}

// verify is MT.VERIFY of a received share.
func (b *Buffers) verify(root hashing.Digest, idx, n int, data []byte, w []hashing.Digest) bool {
	h := b.set().hash
	return merkle.VerifyLeaf(h, root, idx, n, leaf(h, data, nil, nil), w)
}

// appendTuple appends the dispersal tuple (index, share, witness) to dst:
// the index as a uvarint, then the share, given in pieces, and the
// witness, each length-prefixed.
func appendTuple(dst []byte, idx int, witness []hashing.Digest, share ...[]byte) []byte {
	size := 0
	for _, p := range share {
		size += len(p)
	}
	dst = binary.AppendUvarint(binary.AppendUvarint(dst, uint64(idx)), uint64(size))
	for _, p := range share {
		dst = append(dst, p...)
	}
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

package baplus

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"convexagreement/internal/bitstr"
	"convexagreement/internal/hashing"
	"convexagreement/internal/merkle"
	"convexagreement/internal/rs"
	"convexagreement/internal/sim"
)

// commitRef is step 1 for one value as it was before the lanes shared
// their stripes, the oracle of commit: the value's n shares, encoded in
// full into fresh storage, and the Merkle tree over them.
func commitRef(codec *rs.Codec, input []byte) ([]rs.Share, *merkle.Tree, error) {
	shares, err := codec.Encode(input)
	if err != nil {
		return nil, nil, err
	}
	leaves := make([][]byte, len(shares))
	for i, sh := range shares {
		leaves[i] = sh.Data
	}
	tree, err := merkle.Build(leaves)
	if err != nil {
		return nil, nil, err
	}
	return shares, tree, nil
}

// nestedCase is one input of the differential test: a window of random
// bits and the nested lane ends, with D, the length of the prefix every
// party's window shares (the parties' windows differ pairwise in their
// first five bits past D, and no lane ends in between, so lane j agrees
// exactly when ends[j] ≤ D).
type nestedCase struct {
	n      int
	window bitstr.String
	ends   []int
	shared int
}

// makeNestedCase derives a case from fuzz input: the shape from shape, the
// window's length from width, its bits from seed, and up to four lane ends
// from raw, two bytes each, sorted; an end is forced small (at most 40
// bits: a lane no longer than a root, or shorter than the stripes that
// hold the lengths), equal to its neighbour, or the window's length by the
// top bits of its first byte.
func makeNestedCase(shape uint8, width uint16, seed int64, raw []byte) nestedCase {
	c := nestedCase{n: []int{4, 7, 16}[shape%3]}
	w := int(width)%3000 + 1
	rng := rand.New(rand.NewSource(seed))
	body := make([]byte, (w+7)/8)
	rng.Read(body)
	if pad := uint(-w) & 7; pad != 0 {
		body[len(body)-1] &^= 1<<pad - 1
	}
	c.window, _ = bitstr.Unmarshal(append(binary.BigEndian.AppendUint32(nil, uint32(w)), body...))
	for i := 0; i+1 < len(raw) && len(c.ends) < 4; i += 2 {
		e := int(binary.BigEndian.Uint16(raw[i:])) % (w + 1)
		switch raw[i] >> 6 {
		case 1:
			e %= 41
		case 2:
			if len(c.ends) > 0 {
				e = c.ends[len(c.ends)-1]
			}
		case 3:
			e = w
		}
		c.ends = append(c.ends, e)
	}
	if len(c.ends) == 0 {
		c.ends = []int{w}
	}
	for i := 1; i < len(c.ends); i++ { // insertion sort: the ends nest
		for j := i; j > 0 && c.ends[j] < c.ends[j-1]; j-- {
			c.ends[j], c.ends[j-1] = c.ends[j-1], c.ends[j]
		}
	}
	c.shared = c.ends[int(shape/3)%len(c.ends)]
	if shape&0x80 != 0 {
		c.shared = w
	}
	for moved := true; moved; {
		moved = false
		for _, e := range c.ends {
			if e > c.shared && e < c.shared+5 {
				c.shared, moved = e, true
			}
		}
	}
	return c
}

// lane is the oracle's lane j input: the window's first ends[j] bits,
// marshalled by bitstr itself.
func (c nestedCase) lane(j int) []byte {
	in, _ := c.window.AppendMarshalRange(nil, 0, c.ends[j])
	return in
}

// windowOf is party i's window: the case's window, with the bits past the
// shared prefix flipped by the pattern of i+1 — five bits, distinct for
// every party of up to 31, repeated.
func (c nestedCase) windowOf(i int) []byte {
	v := c.window.CopyTo(new([]byte))
	for p := c.shared; p < v.Len(); p++ {
		v.SetBit(p, v.Bit(p)^byte((i+1)>>((p-c.shared)%5)&1))
	}
	return v.Marshal()
}

// checkCommit holds commit on the case's window to commitRef lane by lane:
// every lane's tagged input, every committed lane's shares, root and
// witnesses; the window comes back as it went in, and no more stripes are
// encoded than the widest lane's plus the head and the last stripe of
// every narrower one.
func checkCommit(t *testing.T, c nestedCase, b *Buffers) {
	t.Helper()
	codec, err := rs.SharedCodec(c.n, c.n-(c.n-1)/3)
	if err != nil {
		t.Fatal(err)
	}
	window := c.window.Marshal()
	frames, err := b.commit(codec, &lanes{window: window, ends: c.ends})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(window, c.window.Marshal()) {
		t.Fatalf("n=%d ends %v: commit left the window rewritten", c.n, c.ends)
	}
	head, bound, wide := codec.ShareSize(4)/2, 0, true
	for j := len(c.ends) - 1; j >= 0; j-- {
		in := c.lane(j)
		if len(in) <= hashing.Size {
			if want := append([]byte{laneValue}, in...); !bytes.Equal(frames[j], want) {
				t.Fatalf("n=%d ends %v: lane %d frame %x, want %x", c.n, c.ends, j, frames[j], want)
			}
			continue
		}
		shares, tree, err := commitRef(codec, in)
		if err != nil {
			t.Fatal(err)
		}
		root := tree.Root()
		if want := append([]byte{laneRoot}, root[:]...); !bytes.Equal(frames[j], want) {
			t.Fatalf("n=%d ends %v: lane %d frame %x, want the root %x", c.n, c.ends, j, frames[j], want)
		}
		cm := &b.cs.commits[j]
		for i, sh := range shares {
			head, body, tail := b.share(cm, i)
			if got := bytes.Join([][]byte{head, body, tail}, nil); !bytes.Equal(got, sh.Data) {
				t.Fatalf("n=%d ends %v: lane %d share %d differs from the full encode's", c.n, c.ends, j, i)
			}
			w, err := cm.tree.Witness(i)
			if err != nil || !merkle.Verify(root, i, c.n, sh.Data, w) {
				t.Fatalf("n=%d ends %v: lane %d share %d: witness does not verify (%v)", c.n, c.ends, j, i, err)
			}
		}
		if stripes := codec.ShareSize(len(in)) / 2; wide {
			bound, wide = stripes, false
		} else {
			bound += min(stripes, head+1)
		}
	}
	if b.cs != nil && b.cs.encoded > bound {
		t.Fatalf("n=%d ends %v: %d stripes encoded, want at most %d", c.n, c.ends, b.cs.encoded, bound)
	}
}

// checkRun runs LongLanes on the case in the simulator, every party on its
// own window, and holds j* and the delivered value to the oracle's: the
// highest lane no wider than the shared prefix, and its input.
func checkRun(t *testing.T, c nestedCase) {
	t.Helper()
	want, value := -1, []byte(nil)
	for j, e := range c.ends {
		if e <= c.shared {
			want, value = j, c.lane(j)
		}
	}
	type out struct {
		lane  int
		value []byte
	}
	res, err := sim.Collect(sim.Config{N: c.n, T: (c.n - 1) / 3}, nil,
		func(env *sim.Env) (out, error) {
			lane, v, err := LongLanes(env, "f", c.windowOf(int(env.ID())), c.ends, nil)
			return out{lane, bytes.Clone(v)}, err
		})
	if err != nil {
		t.Fatalf("n=%d ends %v shared %d: %v", c.n, c.ends, c.shared, err)
	}
	for id, o := range res.Outputs {
		if o.lane != want || !bytes.Equal(o.value, value) {
			t.Fatalf("n=%d ends %v shared %d: party %d delivered lane %d (%d bytes), want lane %d (%d bytes)",
				c.n, c.ends, c.shared, id, o.lane, len(o.value), want, len(value))
		}
	}
}

// FuzzNestedLanes holds LongLanes' shared encoding to the oracle that
// encodes and hashes every lane on its own (commitRef), over random nested
// lane ends — bit lengths that are no multiple of 8, equal ends, lanes no
// longer than a root mixed in, lanes shorter than the stripes that hold
// the lengths — at n ∈ {4, 7, 16}: every lane's shares and root, then j*
// and the value delivered. One Buffers serves every input, as a party's
// serves FINDPREFIX's iterations, and is scribbled between them.
func FuzzNestedLanes(f *testing.F) {
	f.Add(uint8(1), uint16(2100), int64(1), []byte{0x01, 0x00, 0x02, 0x9a, 0xc0, 0x00})
	f.Add(uint8(2), uint16(700), int64(2), []byte{0x40, 0x21, 0x80, 0x00, 0x05, 0x57})
	f.Add(uint8(0x80), uint16(513), int64(3), []byte{0xc0, 0x00, 0x80, 0x00, 0x01, 0x03})
	f.Add(uint8(4), uint16(260), int64(4), []byte{0x00, 0x07, 0x01, 0x07, 0x02, 0x07, 0xc0, 0x00})
	var b Buffers
	f.Fuzz(func(t *testing.T, shape uint8, width uint16, seed int64, raw []byte) {
		c := makeNestedCase(shape, width, seed, raw)
		b.Scribble()
		checkCommit(t, c, &b)
		checkRun(t, c)
	})
}

// TestNestedLanesMatchOracle runs the differential check over a fixed
// sweep: each shape, windows whose last byte is full and partial, and ends
// that fall on and off byte and stripe boundaries.
func TestNestedLanesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	var b Buffers
	for i := range 60 {
		raw := make([]byte, 8)
		rng.Read(raw)
		c := makeNestedCase(uint8(i), uint16(rng.Intn(3000)), int64(i), raw)
		t.Run(fmt.Sprintf("n%d/%v", c.n, c.ends), func(t *testing.T) {
			b.Scribble()
			checkCommit(t, c, &b)
			checkRun(t, c)
		})
	}
}

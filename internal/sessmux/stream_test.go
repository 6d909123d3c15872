package sessmux_test

import (
	"bytes"
	"fmt"
	"hash"
	"hash/fnv"
	"sync"
	"testing"

	"convexagreement/internal/sessmux"
	"convexagreement/internal/transport"
)

// recNet is a recording base: it folds every physical packet it is handed
// (To, Tag, payload bytes, in order) into an FNV-1a digest, keeps a copy
// of each payload, and delivers nothing.
type recNet struct {
	n    int
	h    hash.Hash64
	sent [][]byte
}

func newRecNet(n int) *recNet { return &recNet{n: n, h: fnv.New64a()} }

func (s *recNet) ID() transport.PartyID { return 1 }
func (s *recNet) N() int                { return s.n }
func (s *recNet) T() int                { return 1 }

func (s *recNet) record(to transport.PartyID, tag string, payload []byte) {
	fmt.Fprintf(s.h, "%d|%s|%d|", to, tag, len(payload))
	s.h.Write(payload)
	s.sent = append(s.sent, payload)
}

func (s *recNet) Exchange(out []transport.Packet) ([]transport.Message, error) {
	for _, p := range out {
		s.record(p.To, p.Tag, append([]byte(nil), p.Payload...))
	}
	return nil, nil
}

// recVecNet is recNet for the scatter-gather path: it flattens each
// VecPacket before ExchangeVec returns, as the VecNet ownership contract
// requires of a retaining transport.
type recVecNet struct{ *recNet }

func (s recVecNet) ExchangeVec(out []transport.VecPacket) ([]transport.Message, error) {
	for _, p := range out {
		s.record(p.To, p.Tag, bytes.Join(p.Vec, nil))
	}
	return nil, nil
}

var _ transport.VecNet = recVecNet{}

// driveTicks opens the sessions on m (all on the same tick) and pushes
// each through the given number of virtual rounds.
func driveTicks(t *testing.T, m *sessmux.Mux, shapes []sessShape, rounds int, batch func(sid uint64, round int) []transport.Packet) {
	t.Helper()
	sessions := make([]*sessmux.Session, len(shapes))
	for i, sh := range shapes {
		s, err := m.Open(sh.sid, sh.n, sh.t)
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
	}
	var wg sync.WaitGroup
	for _, s := range sessions {
		wg.Add(1)
		go func(s *sessmux.Session) {
			defer wg.Done()
			defer s.Close()
			for r := 0; r < rounds; r++ {
				if _, err := s.Exchange(batch(s.Sid(), r)); err != nil {
					t.Errorf("session %d round %d: %v", s.Sid(), r, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
}

type sessShape struct {
	sid  uint64
	n, t int
}

// mergedStreamDigest is the FNV-1a digest of the physical packet stream
// the script below produced at the commit before the copying merge was
// replaced by the transport.ExchangeVec fallback. It pins the merge's
// bytes AND order: fault-injection replay digests, the simulator's bit
// counts and the TCP frame bytes all hang off this stream.
const mergedStreamDigest = 0x4f78f0a210cb83bc

// TestMergedStreamPinned drives a fixed 3-session × 4-round script — sids
// with 1-, 2- and 3-byte varints, sessions narrower than the base, an
// empty payload, packets addressed outside the session — over a plain
// base (flattening fallback) and a VecNet base (pieces by reference) and
// holds both physical streams to the pinned digest.
func TestMergedStreamPinned(t *testing.T) {
	shapes := []sessShape{{3, 4, 1}, {200, 2, 0}, {70000, 3, 0}}
	batch := func(sid uint64, round int) []transport.Packet {
		var out []transport.Packet
		for to := -1; to < 5; to++ {
			out = append(out, transport.Packet{
				To:      transport.PartyID(to),
				Tag:     fmt.Sprintf("s%d", sid),
				Payload: bytes.Repeat([]byte{byte(sid) ^ byte(round<<4) ^ byte(to)}, 16+int(sid%7)+round),
			})
		}
		return append(out, transport.Packet{To: 0, Tag: "empty"})
	}
	plain := newRecNet(4)
	vec := recVecNet{newRecNet(4)}
	for name, base := range map[string]transport.Net{"plain": plain, "vec": vec} {
		m := sessmux.New(base)
		driveTicks(t, m, shapes, 4, batch)
		st := m.Stats()
		if st.Ticks != 4 || st.Packets == 0 {
			t.Fatalf("%s base: stats %+v, want 4 ticks and traffic", name, st)
		}
		// All payload bytes referenced on the vec base, all copied by the
		// flattening fallback on the plain one.
		if copying := name == "plain"; (st.BytesCopied != 0) != copying || (st.BytesReferenced != 0) == copying {
			t.Fatalf("%s base: copied=%d referenced=%d", name, st.BytesCopied, st.BytesReferenced)
		}
	}
	if got := plain.h.Sum64(); got != mergedStreamDigest {
		t.Errorf("plain base stream digest = %#x, pinned %#x", got, uint64(mergedStreamDigest))
	}
	if got := vec.h.Sum64(); got != mergedStreamDigest {
		t.Errorf("vec base stream digest = %#x, pinned %#x", got, uint64(mergedStreamDigest))
	}
}

// TestVecScratchDoesNotAliasAcrossRounds: the merge reuses its header
// scratch across ticks, which is only sound because ExchangeVec frees the
// pieces on return. The recording base flattens at delivery time; the
// copies it took must stay intact while later ticks rewrite the scratch.
func TestVecScratchDoesNotAliasAcrossRounds(t *testing.T) {
	vec := recVecNet{newRecNet(2)}
	payload := []byte("stable")
	driveTicks(t, sessmux.New(vec), []sessShape{{5, 2, 0}, {300, 2, 0}}, 3,
		func(sid uint64, round int) []transport.Packet {
			return []transport.Packet{{To: 0, Tag: "t", Payload: payload}}
		})
	if len(vec.sent) != 6 {
		t.Fatalf("recorded %d frames, want 6", len(vec.sent))
	}
	for i, sent := range vec.sent {
		want := frame([]uint64{5, 300}[i%2], "stable")
		if !bytes.Equal(sent, want) {
			t.Fatalf("frame %d corrupted across scratch reuse: %x, want %x", i, sent, want)
		}
	}
}

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
	n       int
	h       hash.Hash64
	sent    [][]byte
	entries int
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
// requires of a retaining transport, and records a transport.All entry as
// the n packets it stands for. entries counts the VecPackets it was handed.
type recVecNet struct{ *recNet }

func (s recVecNet) ExchangeVec(out []transport.VecPacket) ([]transport.Message, error) {
	s.entries += len(out)
	for _, p := range out {
		payload := bytes.Join(p.Vec, nil)
		if p.To != transport.All {
			s.record(p.To, p.Tag, payload)
			continue
		}
		for to := range s.n {
			s.record(to, p.Tag, payload)
		}
	}
	return nil, nil
}

var _ transport.VecNet = recVecNet{}

// driveTicks opens the sessions on m (all on the same tick) and pushes
// each through the given number of virtual rounds.
func driveTicks(t *testing.T, m *sessmux.Mux, shapes []sessShape, rounds int, batch func(sid uint64, round int) []transport.Packet) {
	t.Helper()
	driveRounds(t, m, shapes, rounds, func(s *sessmux.Session, r int) error {
		_, err := s.Exchange(batch(s.Sid(), r))
		return err
	})
}

// driveRounds is driveTicks with each virtual round left to round, which
// may submit it through any of the session's entry points.
func driveRounds(t *testing.T, m *sessmux.Mux, shapes []sessShape, rounds int, round func(s *sessmux.Session, r int) error) {
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
				if err := round(s, r); err != nil {
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

// broadcastStreamDigest is the FNV-1a digest of the physical packet
// stream the broadcast script below produced when every session round was
// still merged as one packet per destination, before a full-width
// broadcast became one transport.All entry. It pins the bytes and order of
// broadcast rounds, whichever way the n packets are built.
const broadcastStreamDigest = 0x5e21f5cade931915

// TestBroadcastStreamPinned drives a fixed 4-session × 4-round script over
// a 4-party plain base (flattening fallback) and a VecNet base and holds
// both physical streams to one pinned digest. Sid 5 is full-width and
// broadcasts through transport.ExchangeAll, sid 6 is full-width and hands
// Exchange transport.Broadcast's n packets, sid 300 is a 2-party session
// broadcasting, and sid 70000 is full-width and mixes per-peer payloads,
// one payload slice sent to everyone but under two tags, and packets
// addressed outside the session. Even rounds leave sid 6 silent.
func TestBroadcastStreamPinned(t *testing.T) {
	shapes := []sessShape{{5, 4, 1}, {6, 4, 1}, {300, 2, 0}, {70000, 4, 1}}
	payload := func(sid uint64, r int) []byte {
		return bytes.Repeat([]byte{byte(sid) ^ byte(r<<4)}, 8+int(sid%5)+r)
	}
	round := func(s *sessmux.Session, r int) error {
		var err error
		switch sid := s.Sid(); sid {
		case 5, 300:
			_, err = transport.ExchangeAll(s, fmt.Sprintf("b%d", sid), payload(sid, r), nil)
		case 6:
			var out []transport.Packet
			if r%2 == 1 {
				out = transport.Broadcast(s, "b6", payload(sid, r))
			}
			_, err = s.Exchange(out)
		default:
			shared := payload(sid, r)
			out := []transport.Packet{{To: -1, Tag: "x", Payload: shared}}
			for to := 0; to < 4; to++ {
				tag := "m"
				if to == 3 {
					tag = "m2"
				}
				out = append(out, transport.Packet{To: to, Tag: tag, Payload: shared})
			}
			for to := 3; to >= 0; to-- {
				out = append(out, transport.Packet{To: to, Tag: "p", Payload: payload(sid+uint64(to), r)})
			}
			out = append(out, transport.Packet{To: 4, Tag: "x", Payload: shared}, transport.Packet{To: 2, Tag: "e"})
			_, err = s.Exchange(out)
		}
		return err
	}
	plain := newRecNet(4)
	vec := recVecNet{newRecNet(4)}
	for name, base := range map[string]transport.Net{"plain": plain, "vec": vec} {
		m := sessmux.New(base)
		driveRounds(t, m, shapes, 4, round)
		if st := m.Stats(); st.Ticks != 4 || st.Packets != 4*(4+2+9)+2*4 {
			t.Fatalf("%s base: stats %+v, want 4 ticks and %d packets", name, st, 4*(4+2+9)+2*4)
		}
	}
	if got := plain.h.Sum64(); got != broadcastStreamDigest {
		t.Errorf("plain base stream digest = %#x, pinned %#x", got, uint64(broadcastStreamDigest))
	}
	if got := vec.h.Sum64(); got != broadcastStreamDigest {
		t.Errorf("vec base stream digest = %#x, pinned %#x", got, uint64(broadcastStreamDigest))
	}
	// What the VecNet base was handed: per round one entry for sid 5, one
	// for sid 6 in odd rounds, two for the narrow sid 300 and nine for sid
	// 70000's per-peer packets.
	if want := 4*(1+2+9) + 2; vec.entries != want {
		t.Errorf("vec base was handed %d entries, want %d", vec.entries, want)
	}
}

// TestBroadcastTickIsOneEntryPerSession: a tick of k full-width sessions
// broadcasting, through transport.ExchangeAll or with transport.Broadcast's
// packets, hands the VecNet base k entries, not k·n.
func TestBroadcastTickIsOneEntryPerSession(t *testing.T) {
	const k, n = 8, 4
	shapes := make([]sessShape, k)
	for i := range shapes {
		shapes[i] = sessShape{uint64(i + 1), n, 1}
	}
	vec := recVecNet{newRecNet(n)}
	driveRounds(t, sessmux.New(vec), shapes, 1, func(s *sessmux.Session, _ int) error {
		payload := []byte{byte(s.Sid())}
		var err error
		if s.Sid()%2 == 0 {
			_, err = transport.ExchangeAll(s, "b", payload, nil)
		} else {
			_, err = s.Exchange(transport.Broadcast(s, "b", payload))
		}
		return err
	})
	if vec.entries != k {
		t.Errorf("a tick of %d broadcasting sessions handed ExchangeVec %d entries, want %d", k, vec.entries, k)
	}
	if len(vec.sent) != k*n {
		t.Errorf("recorded %d packets, want %d", len(vec.sent), k*n)
	}
}

// parallelStreamDigest is the FNV-1a digest of the physical packet stream
// the Parallel script below produced when parallel composition still
// carried its own merge. It pins the bytes AND the order Parallel must
// emit: E11's bit counts, the AgreeVector goldens and faultnet replay
// digests all hang off this stream.
const parallelStreamDigest = 0x690a9787207352a5

// TestVecPathMatchesCopyPath runs a fixed 3-instance × 4-round script
// through Parallel over a plain base and a VecNet base and holds both
// physical packet streams to the pinned digest — the merge is a pure
// function of the instances' packets, whichever send shape the base takes.
func TestVecPathMatchesCopyPath(t *testing.T) {
	const k, rounds = 3, 4
	batch := func(inst, round int) []transport.Packet {
		var out []transport.Packet
		for to := 0; to < 4; to++ {
			out = append(out, transport.Packet{
				To:      transport.PartyID(to),
				Tag:     "t",
				Payload: bytes.Repeat([]byte{byte(inst<<4 | round)}, 32+inst),
			})
		}
		// One empty payload per instance: it must be framed too.
		return append(out, transport.Packet{To: 0, Tag: "t"})
	}
	fns := make([]func(net transport.Net) error, k)
	for inst := range fns {
		fns[inst] = func(net transport.Net) error {
			for r := 0; r < rounds; r++ {
				if _, err := net.Exchange(batch(inst, r)); err != nil {
					return fmt.Errorf("instance %d round %d: %w", inst, r, err)
				}
			}
			return nil
		}
	}
	plain := newRecNet(4)
	vec := recVecNet{newRecNet(4)}
	for _, base := range []transport.Net{plain, vec} {
		if err := sessmux.Parallel(base, fns); err != nil {
			t.Fatal(err)
		}
	}
	if got := plain.h.Sum64(); got != parallelStreamDigest {
		t.Errorf("plain base stream digest = %#x, pinned %#x", got, uint64(parallelStreamDigest))
	}
	if got := vec.h.Sum64(); got != parallelStreamDigest {
		t.Errorf("vec base stream digest = %#x, pinned %#x", got, uint64(parallelStreamDigest))
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

// TestAllIsNotAnExchangeAddress: a session packet addressed to
// transport.All is out of range like any other and dropped, on either
// base; only the merge's own broadcast entries carry All.
func TestAllIsNotAnExchangeAddress(t *testing.T) {
	plain := newRecNet(4)
	vec := recVecNet{newRecNet(4)}
	for _, base := range []transport.Net{plain, vec} {
		driveTicks(t, sessmux.New(base), []sessShape{{1, 4, 1}}, 1, func(uint64, int) []transport.Packet {
			return []transport.Packet{{To: transport.All, Tag: "a", Payload: []byte{1}}}
		})
	}
	if len(plain.sent) != 0 || len(vec.sent) != 0 || vec.entries != 0 {
		t.Errorf("a packet to transport.All was shipped: plain %d, vec %d packets in %d entries", len(plain.sent), len(vec.sent), vec.entries)
	}
}

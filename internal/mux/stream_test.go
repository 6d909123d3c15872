package mux_test

import (
	"bytes"
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"convexagreement/internal/mux"
	"convexagreement/internal/transport"
)

// recNet is a recording base: it folds every physical packet it is handed
// (To, Tag, payload bytes, in order) into an FNV-1a digest and delivers
// nothing.
type recNet struct {
	n int
	h hash.Hash64
}

func (s *recNet) ID() transport.PartyID { return 1 }
func (s *recNet) N() int                { return s.n }
func (s *recNet) T() int                { return 1 }

func (s *recNet) record(to transport.PartyID, tag string, payload []byte) {
	fmt.Fprintf(s.h, "%d|%s|%d|", to, tag, len(payload))
	s.h.Write(payload)
}

func (s *recNet) Exchange(out []transport.Packet) ([]transport.Message, error) {
	for _, p := range out {
		s.record(p.To, p.Tag, p.Payload)
	}
	return nil, nil
}

// recVecNet is recNet for the scatter-gather path.
type recVecNet struct{ *recNet }

func (s recVecNet) ExchangeVec(out []transport.VecPacket) ([]transport.Message, error) {
	for _, p := range out {
		s.record(p.To, p.Tag, bytes.Join(p.Vec, nil))
	}
	return nil, nil
}

var _ transport.VecNet = recVecNet{}

// driveRounds pushes a k-instance mux through the given per-round packet
// batches.
func driveRounds(t *testing.T, m *mux.Mux, k, rounds int, batch func(inst, round int) []transport.Packet) {
	t.Helper()
	done := make(chan error, k)
	for inst := 0; inst < k; inst++ {
		go func(inst int) {
			net := m.Net(inst)
			for r := 0; r < rounds; r++ {
				if _, err := net.Exchange(batch(inst, r)); err != nil {
					done <- fmt.Errorf("instance %d round %d: %w", inst, r, err)
					return
				}
			}
			done <- nil
		}(inst)
	}
	for i := 0; i < k; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// mergedStreamDigest is the FNV-1a digest of the physical packet stream
// the script below produced when mux still carried its own merge. It pins
// the bytes AND the order the sessmux-core mux must emit: E11's bit
// counts, the ConvexAgreeVector goldens and faultnet replay digests all
// hang off this stream.
const mergedStreamDigest = 0x690a9787207352a5

// TestVecPathMatchesCopyPath runs a fixed 3-instance × 4-round script over
// a plain base and a VecNet base and holds both physical packet streams
// to the pinned digest — the merge is a pure function of the instances'
// packets, whichever send shape the base takes.
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
	plain := &recNet{n: 4, h: fnv.New64a()}
	vec := recVecNet{&recNet{n: 4, h: fnv.New64a()}}
	for _, base := range []transport.Net{plain, vec} {
		m, err := mux.New(base, k)
		if err != nil {
			t.Fatal(err)
		}
		driveRounds(t, m, k, rounds, batch)
	}
	if got := plain.h.Sum64(); got != mergedStreamDigest {
		t.Errorf("plain base stream digest = %#x, pinned %#x", got, uint64(mergedStreamDigest))
	}
	if got := vec.h.Sum64(); got != mergedStreamDigest {
		t.Errorf("vec base stream digest = %#x, pinned %#x", got, uint64(mergedStreamDigest))
	}
}

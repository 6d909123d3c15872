package sessmux_test

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"convexagreement/internal/faultnet"
	"convexagreement/internal/sessmux"
	"convexagreement/internal/sim"
	"convexagreement/internal/transport"
)

// stubNet replays a fabricated physical-tick inbox, letting backpressure
// tests craft hostile delivery patterns no honest transport would produce.
type stubNet struct {
	n  int
	in []transport.Message
}

func (s *stubNet) ID() transport.PartyID { return 1 }
func (s *stubNet) N() int                { return s.n }
func (s *stubNet) T() int                { return 1 }
func (s *stubNet) Exchange(out []transport.Packet) ([]transport.Message, error) {
	return s.in, nil
}

// frame prefixes a payload with its session id, as the merge does on the
// send side.
func frame(sid uint64, payload string) []byte {
	return append(binary.AppendUvarint(nil, sid), payload...)
}

// runTick opens the given sessions on a stub-backed mux and drives one
// virtual round of each, returning each session's inbox keyed by sid.
func runTick(t *testing.T, m *sessmux.Mux, sids []uint64, n, tc int) map[uint64][]transport.Message {
	t.Helper()
	sessions := make([]*sessmux.Session, len(sids))
	for i, sid := range sids {
		s, err := m.Open(sid, n, tc)
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
	}
	out := make(map[uint64][]transport.Message, len(sids))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *sessmux.Session) {
			defer wg.Done()
			in, err := s.Exchange(nil)
			if err != nil {
				t.Errorf("session %d: %v", s.Sid(), err)
				return
			}
			mu.Lock()
			out[s.Sid()] = in
			mu.Unlock()
		}(i, s)
	}
	wg.Wait()
	return out
}

// inboxBound is the per-session inbox cap of a 4-party session: 64·n.
const inboxBound = 64 * 4

// countHonest counts the "honest" payloads in box.
func countHonest(box []transport.Message) int {
	honest := 0
	for _, msg := range box {
		if string(msg.Payload) == "honest" {
			honest++
		}
	}
	return honest
}

// TestSessionBoundIsolatesFloodingSibling: a peer pumping past 64·n
// messages into one session is capped by the per-session bound; honest
// senders' messages survive and the sibling session's inbox is untouched.
// Flood-after-honest exercises the drop-incoming arm of the policy.
func TestSessionBoundIsolatesFloodingSibling(t *testing.T) {
	const floodN = 1000
	var in []transport.Message
	for s := 0; s < 3; s++ { // honest senders 0..2: one message per session
		in = append(in, transport.Message{From: transport.PartyID(s), Payload: frame(10, "honest")})
		in = append(in, transport.Message{From: transport.PartyID(s), Payload: frame(11, "honest")})
	}
	for i := 0; i < floodN; i++ { // sender 3 floods session 10
		in = append(in, transport.Message{From: 3, Payload: frame(10, "flood")})
	}
	m := sessmux.New(&stubNet{n: 4, in: in})
	boxes := runTick(t, m, []uint64{10, 11}, 4, 1)

	if len(boxes[10]) != inboxBound {
		t.Fatalf("session 10 inbox = %d messages, want bound %d", len(boxes[10]), inboxBound)
	}
	if honest := countHonest(boxes[10]); honest != 3 {
		t.Fatalf("flood displaced honest traffic: %d/3 honest messages survive", honest)
	}
	if len(boxes[11]) != 3 || countHonest(boxes[11]) != 3 {
		t.Fatalf("sibling session disturbed: inbox %v, want the 3 honest messages", boxes[11])
	}
	if st := m.Stats(); st.SessionShed != uint64(3+floodN-inboxBound) {
		t.Fatalf("SessionShed = %d, want %d", st.SessionShed, 3+floodN-inboxBound)
	}
}

// TestSessionBoundEvictsHeaviest: when the flood arrives BEFORE the honest
// traffic, a full inbox must evict the flooder's oldest messages to admit
// honest ones — the evict arm of shed-oldest-from-faulty.
func TestSessionBoundEvictsHeaviest(t *testing.T) {
	const floodN = 1000
	var in []transport.Message
	for i := 0; i < floodN; i++ { // sender 0 floods session 1 first
		in = append(in, transport.Message{From: 0, Payload: frame(1, "flood")})
	}
	for s := 1; s < 4; s++ { // honest senders 1..3 arrive after
		in = append(in, transport.Message{From: transport.PartyID(s), Payload: frame(1, "honest")})
	}
	boxes := runTick(t, sessmux.New(&stubNet{n: 4, in: in}), []uint64{1}, 4, 1)

	if len(boxes[1]) != inboxBound {
		t.Fatalf("inbox = %d messages, want bound %d", len(boxes[1]), inboxBound)
	}
	if honest := countHonest(boxes[1]); honest != 3 {
		t.Fatalf("late honest traffic lost to an earlier flood: %d/3 survive", honest)
	}
}

// TestShedDeterministic: the shed policy is a pure function of delivery
// order — two identical runs keep byte-identical inboxes.
func TestShedDeterministic(t *testing.T) {
	build := func() map[uint64][]transport.Message {
		var in []transport.Message
		for i := 0; i < inboxBound+50; i++ {
			in = append(in, transport.Message{From: 2, Payload: frame(1, "flood")})
		}
		for s := 0; s < 4; s++ {
			in = append(in, transport.Message{From: transport.PartyID(s), Payload: frame(1, "h")})
			in = append(in, transport.Message{From: transport.PartyID(s), Payload: frame(2, "h")})
		}
		return runTick(t, sessmux.New(&stubNet{n: 4, in: in}), []uint64{1, 2}, 4, 1)
	}
	a, b := build(), build()
	if len(a[1]) != inboxBound {
		t.Fatalf("flooded inbox = %d messages, want bound %d: the shed never ran", len(a[1]), inboxBound)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("shed policy not deterministic:\n%v\n%v", a, b)
	}
}

// TestByzantineFramesDropped: undecodable frames, unknown session ids,
// and senders outside a session's participant set are all dropped without
// disturbing honest delivery.
func TestByzantineFramesDropped(t *testing.T) {
	in := []transport.Message{
		{From: 0, Payload: frame(1, "ok")},
		{From: 0, Payload: nil},                       // undecodable: empty
		{From: 0, Payload: []byte{0x80}},              // undecodable: truncated varint
		{From: 0, Payload: frame(99, "unknown sid")},  // not a local session
		{From: 3, Payload: frame(1, "outside-party")}, // From ≥ session n
	}
	m := sessmux.New(&stubNet{n: 4, in: in})
	boxes := runTick(t, m, []uint64{1}, 2, 0)
	if len(boxes[1]) != 1 || string(boxes[1][0].Payload) != "ok" {
		t.Fatalf("inbox = %v, want exactly the one honest message", boxes[1])
	}
}

// faultPlan is the shared adversarial schedule for the replay battery:
// drops, delays, duplicates, corruption, and a partition window, all
// seeded.
func faultPlan(seed int64) *faultnet.Plan {
	return &faultnet.Plan{
		Seed: seed,
		Rules: []faultnet.Rule{
			{Kind: faultnet.Drop, From: faultnet.Any, To: faultnet.Any, Prob: 0.10},
			{Kind: faultnet.Delay, From: 2, To: faultnet.Any, Prob: 0.25, DelayRounds: 2},
			{Kind: faultnet.Duplicate, From: faultnet.Any, To: 1, Prob: 0.20},
			{Kind: faultnet.Corrupt, From: 3, To: faultnet.Any, Prob: 0.30},
		},
		Partitions: []faultnet.Partition{{FromRound: 2, ToRound: 4, GroupA: []int{0, 1}}},
	}
}

// TestFaultReplayDigestExact: two runs of the same multi-session workload
// under the same seeded fault plan must produce identical per-party
// transcript digests — the merge order, shed policy, and demux are all
// deterministic, so fault-injection campaigns replay exactly.
func TestFaultReplayDigestExact(t *testing.T) {
	run := func() map[sim.PartyID]uint64 {
		res, err := sim.Collect(sim.Config{N: 4, T: 1}, nil,
			func(env *sim.Env) (uint64, error) {
				fn := faultnet.Wrap(env, faultPlan(42))
				m := sessmux.New(fn)
				s1, err := m.Open(1, 4, 1)
				if err != nil {
					return 0, err
				}
				s2, err := m.Open(2, 4, 1)
				if err != nil {
					return 0, err
				}
				var wg sync.WaitGroup
				wg.Add(2)
				for _, s := range []*sessmux.Session{s1, s2} {
					go func(s *sessmux.Session) {
						defer wg.Done()
						defer s.Close()
						for r := 0; r < 6; r++ {
							payload := fmt.Sprintf("s%d-r%d-p%d", s.Sid(), r, s.ID())
							// Faults drop and corrupt at will; only the
							// transcript digest matters here.
							if _, err := transport.ExchangeAll(s, "t", []byte(payload), nil); err != nil {
								t.Errorf("session %d: %v", s.Sid(), err)
								return
							}
						}
					}(s)
				}
				wg.Wait()
				return fn.Transcript(), nil
			})
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[sim.PartyID]uint64, len(res.Outputs))
		for id, d := range res.Outputs {
			out[id] = d
		}
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fault replay diverged:\nrun1: %v\nrun2: %v", a, b)
	}
	// Different seed must change at least one digest, or the digest isn't
	// measuring anything.
	if c := runWithSeed(t, 43); reflect.DeepEqual(a, c) {
		t.Fatalf("digests identical across seeds: transcript is not sensitive to faults")
	}
}

func runWithSeed(t *testing.T, seed int64) map[sim.PartyID]uint64 {
	t.Helper()
	res, err := sim.Collect(sim.Config{N: 4, T: 1}, nil,
		func(env *sim.Env) (uint64, error) {
			fn := faultnet.Wrap(env, faultPlan(seed))
			m := sessmux.New(fn)
			s1, err := m.Open(1, 4, 1)
			if err != nil {
				return 0, err
			}
			s2, err := m.Open(2, 4, 1)
			if err != nil {
				return 0, err
			}
			var wg sync.WaitGroup
			wg.Add(2)
			for _, s := range []*sessmux.Session{s1, s2} {
				go func(s *sessmux.Session) {
					defer wg.Done()
					defer s.Close()
					for r := 0; r < 6; r++ {
						payload := fmt.Sprintf("s%d-r%d-p%d", s.Sid(), r, s.ID())
						if _, err := transport.ExchangeAll(s, "t", []byte(payload), nil); err != nil {
							t.Errorf("session %d: %v", s.Sid(), err)
							return
						}
					}
				}(s)
			}
			wg.Wait()
			return fn.Transcript(), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[sim.PartyID]uint64, len(res.Outputs))
	for id, d := range res.Outputs {
		out[id] = d
	}
	return out
}

// TestRaceStress256Sessions drives 256 concurrent sessions per party over
// the simulator — one goroutine per session per party, all contending on
// the tick lock — and checks every session's echo traffic stays isolated.
// Its real teeth are under `go test -race` (the ci.sh race gate).
func TestRaceStress256Sessions(t *testing.T) {
	const n, sessions, rounds = 4, 256, 3
	_, err := sim.Collect(sim.Config{N: n, T: 1}, nil,
		func(env *sim.Env) (int, error) {
			m := sessmux.New(env)
			all := make([]*sessmux.Session, sessions)
			for i := range all {
				s, err := m.Open(uint64(i), n, 1)
				if err != nil {
					return 0, err
				}
				all[i] = s
			}
			errs := make([]error, sessions)
			var wg sync.WaitGroup
			for i, s := range all {
				wg.Add(1)
				go func(i int, s *sessmux.Session) {
					defer wg.Done()
					defer s.Close()
					errs[i] = echoRounds(s, s.Sid(), rounds)
				}(i, s)
			}
			wg.Wait()
			for _, e := range errs {
				if e != nil {
					return 0, e
				}
			}
			if st := m.Stats(); st.Ticks != rounds || st.SessionShed != 0 {
				return 0, fmt.Errorf("stats = %+v, want %d clean ticks", st, rounds)
			}
			return 1, nil
		})
	if err != nil {
		t.Fatal(err)
	}
}

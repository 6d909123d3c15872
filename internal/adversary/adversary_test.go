package adversary_test

import (
	"bytes"
	"testing"

	"convexagreement/internal/adversary"
	"convexagreement/internal/sim"
	"convexagreement/internal/transport"
)

// harness runs one corrupt strategy against honest echo parties for a few
// rounds and captures what the honest side receives from it: party 0's
// copies of the messages, as an inbox lives only until the next Exchange.
func harness(t *testing.T, strat sim.Behavior, rounds int) [][]sim.Message {
	t.Helper()
	const n = 4
	fromCorrupt := make([][]sim.Message, 0, rounds)
	parties := make([]sim.Party, n)
	for i := 0; i < 3; i++ {
		id := i
		parties[i] = sim.Party{Behavior: func(env *sim.Env) error {
			for r := 0; r < rounds; r++ {
				in, err := transport.ExchangeAll(env, "h", []byte{byte(0x30 + id), byte(r)}, nil)
				if err != nil {
					return err
				}
				if id == 0 {
					var got []sim.Message
					for _, m := range in {
						if m.From == 3 {
							got = append(got, sim.Message{From: m.From, Payload: bytes.Clone(m.Payload)})
						}
					}
					fromCorrupt = append(fromCorrupt, got)
				}
			}
			return nil
		}}
	}
	parties[3] = sim.Party{Corrupt: true, Behavior: strat}
	if _, err := sim.Run(sim.Config{N: n, T: 1}, parties); err != nil {
		t.Fatal(err)
	}
	return fromCorrupt
}

func TestSilentSendsNothing(t *testing.T) {
	for _, round := range harness(t, adversary.Silent(), 4) {
		if len(round) != 0 {
			t.Fatalf("silent adversary sent %d messages", len(round))
		}
	}
}

func TestCrashStopsAfterK(t *testing.T) {
	// Crash(2) participates (silently) for two rounds then exits; the
	// simulation must continue to completion regardless.
	rounds := harness(t, adversary.Crash(2), 5)
	if len(rounds) != 5 {
		t.Fatalf("honest side completed %d rounds", len(rounds))
	}
}

func TestGarbageFloods(t *testing.T) {
	sent := 0
	for _, round := range harness(t, adversary.Garbage(1, 16), 3) {
		sent += len(round)
	}
	if sent == 0 {
		t.Fatal("garbage adversary sent nothing")
	}
}

func TestEquivocateRelaysHonestPayloads(t *testing.T) {
	rounds := harness(t, adversary.Equivocate(2), 3)
	// From round 1 on, the equivocator relays honest payloads of the same
	// round — so whatever party 0 receives from it must equal some honest
	// party's payload for that round.
	for r := 1; r < len(rounds); r++ {
		for _, m := range rounds[r] {
			if len(m.Payload) != 2 || m.Payload[0] < 0x30 || m.Payload[0] > 0x32 {
				t.Fatalf("round %d: non-honest-shaped relay %v", r, m.Payload)
			}
			if int(m.Payload[1]) != r {
				t.Fatalf("round %d: relayed payload from round %d", r, m.Payload[1])
			}
		}
	}
}

func TestMirrorTargetsRecipients(t *testing.T) {
	rounds := harness(t, adversary.Mirror(false), 3)
	for r := 1; r < len(rounds); r++ {
		for _, m := range rounds[r] {
			// The mirror resends what some honest party sent TO party 0.
			if len(m.Payload) != 2 {
				t.Fatalf("round %d: unexpected mirror payload %v", r, m.Payload)
			}
		}
	}
}

func TestSpamSendsManyCopies(t *testing.T) {
	rounds := harness(t, adversary.Spam(3, 3), 3)
	for r := 1; r < len(rounds); r++ {
		if len(rounds[r]) < 3 {
			t.Fatalf("round %d: spammer sent only %d messages", r, len(rounds[r]))
		}
	}
}

func TestReplayResendsStalePayloads(t *testing.T) {
	rounds := harness(t, adversary.Replay(5), 4)
	if len(rounds[0]) != 0 {
		t.Fatalf("round 0: replayed %d messages before seeing any", len(rounds[0]))
	}
	for r := 1; r < len(rounds); r++ {
		if len(rounds[r]) == 0 {
			t.Fatalf("round %d: replay adversary sent nothing", r)
		}
		for _, m := range rounds[r] {
			// Replayed payloads are honest-shaped but stamped with a
			// strictly earlier round.
			if len(m.Payload) != 2 || m.Payload[0] < 0x30 || m.Payload[0] > 0x32 {
				t.Fatalf("round %d: non-honest-shaped replay %v", r, m.Payload)
			}
			if int(m.Payload[1]) >= r {
				t.Fatalf("round %d: replayed payload stamped round %d (not stale)", r, m.Payload[1])
			}
		}
	}
}

func TestLateJoinDarkThenActive(t *testing.T) {
	const dark = 2
	rounds := harness(t, adversary.LateJoin(dark), 5)
	for r := 0; r < dark; r++ {
		if len(rounds[r]) != 0 {
			t.Fatalf("round %d: late joiner sent %d messages while dark", r, len(rounds[r]))
		}
	}
	sent := 0
	for r := dark; r < len(rounds); r++ {
		sent += len(rounds[r])
	}
	if sent == 0 {
		t.Fatal("late joiner never joined")
	}
}

func TestCatalogCoversAllStrategies(t *testing.T) {
	cat := adversary.Catalog()
	if len(cat) < 9 {
		t.Fatalf("catalog has %d strategies", len(cat))
	}
	seen := map[string]bool{}
	for _, s := range cat {
		if s.Name == "" || s.Build == nil {
			t.Fatalf("catalog entry incomplete: %+v", s)
		}
		if seen[s.Name] {
			t.Fatalf("duplicate strategy %q", s.Name)
		}
		seen[s.Name] = true
		// Every strategy must be constructible and runnable.
		rounds := harness(t, s.Build(9), 2)
		_ = rounds
	}
}

func TestStrategiesAreSeedDeterministic(t *testing.T) {
	run := func() [][]sim.Message { return harness(t, adversary.Garbage(42, 24), 3) }
	a, b := run(), run()
	for r := range a {
		if len(a[r]) != len(b[r]) {
			t.Fatalf("round %d: %d vs %d messages", r, len(a[r]), len(b[r]))
		}
		for i := range a[r] {
			if !bytes.Equal(a[r][i].Payload, b[r][i].Payload) {
				t.Fatalf("round %d message %d differs across seeded runs", r, i)
			}
		}
	}
}

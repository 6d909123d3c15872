package adversary_test

import (
	"testing"

	"convexagreement/internal/adversary"
	"convexagreement/internal/sim"
)

// host is the simulator's side of an Attack: exchange what it builds, round
// after round, until the simulation ends.
func host(attack adversary.Attack) sim.Behavior {
	return func(env *sim.Env) error {
		for r := 0; ; r++ {
			if _, err := env.Exchange(attack(r, env.N())); err != nil {
				return err
			}
		}
	}
}

func TestFloodSendsManyCopies(t *testing.T) {
	rounds := harness(t, host(adversary.Flood(3, 16, 8)), 3)
	for r, round := range rounds {
		if len(round) < 16 {
			t.Fatalf("round %d: flood delivered %d copies, want >= 16", r, len(round))
		}
		for _, m := range round {
			if len(m.Payload) != 8 {
				t.Fatalf("round %d: flood payload %d bytes, want 8", r, len(m.Payload))
			}
		}
	}
}

func TestOversizeSendsGiantPayloads(t *testing.T) {
	for r, round := range harness(t, host(adversary.Oversize(4, 4096)), 3) {
		if len(round) == 0 {
			t.Fatalf("round %d: oversize adversary sent nothing", r)
		}
		for _, m := range round {
			if len(m.Payload) != 4096 {
				t.Fatalf("round %d: payload %d bytes, want 4096", r, len(m.Payload))
			}
		}
	}
}

func TestBurstAlternatesSilenceAndFlood(t *testing.T) {
	rounds := harness(t, host(adversary.Burst(5, 3, 32)), 6)
	for r, round := range rounds {
		if burst := (r+1)%3 == 0; burst {
			if len(round) < 32 {
				t.Fatalf("burst round %d delivered %d messages, want >= 32", r, len(round))
			}
		} else if len(round) != 0 {
			t.Fatalf("quiet round %d delivered %d messages, want silence", r, len(round))
		}
	}
}

func TestActiveCatalogRuns(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range adversary.ActiveCatalog() {
		if s.Name == "" || seen[s.Name] {
			t.Fatalf("catalog entry with empty or duplicate name %q", s.Name)
		}
		seen[s.Name] = true
		// Every strategy must run to simulation end against honest parties.
		if rounds := harness(t, host(s.Build(11)), 3); len(rounds) != 3 {
			t.Fatalf("%s: honest side completed %d/3 rounds", s.Name, len(rounds))
		}
	}
}

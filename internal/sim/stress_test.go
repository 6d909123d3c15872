package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"convexagreement/internal/transport"
)

// TestStressMixedAdversaryN128 drives the scheduler at protocol scale: 128
// parties, of which 40 are corrupted rushers that peek every round and relay
// (sometimes mutated copies of) honest payloads, while the honest parties
// broadcast round-stamped payloads and exit at staggered rounds. Every
// honest inbox is validated for sender ordering and exact honest content,
// and the final report is checked against closed-form bit accounting. Run
// under -race this exercises the shared PeekHonest snapshot, the reused
// round-close buffers, and the staggered-completion paths all at once.
func TestStressMixedAdversaryN128(t *testing.T) {
	const (
		n          = 128
		numCorrupt = 40
		baseRounds = 6
		tag        = "stress"
	)

	// Corrupt parties are interleaved among honest ones so the sorted-inbox
	// check sees mixed runs of honest and corrupt senders.
	corrupt := make([]bool, n)
	marked := 0
	for i := 0; i < n && marked < numCorrupt; i++ {
		if i%3 == 1 {
			corrupt[i] = true
			marked++
		}
	}

	// Honest party i runs baseRounds + i%5 rounds, then exits early.
	honestRounds := make([]int, n)
	maxRounds := 0
	for i := 0; i < n; i++ {
		if corrupt[i] {
			continue
		}
		honestRounds[i] = baseRounds + i%5
		if honestRounds[i] > maxRounds {
			maxRounds = honestRounds[i]
		}
	}
	activeAt := func(j, r int) bool { return !corrupt[j] && r < honestRounds[j] }

	honest := func(id int) Behavior {
		return func(env *Env) error {
			for r := 0; r < honestRounds[id]; r++ {
				in, err := transport.ExchangeAll(env, tag, []byte{byte(id), byte(r)}, nil)
				if err != nil {
					return err
				}
				seen := make(map[PartyID]int, n)
				prev := PartyID(-1)
				for _, m := range in {
					if m.From < prev {
						return fmt.Errorf("party %d round %d: inbox not sorted (%d after %d)", id, r, m.From, prev)
					}
					prev = m.From
					seen[m.From]++
					if corrupt[m.From] {
						continue
					}
					// An honest sender broadcasts exactly its stamp; the
					// authenticated From makes anything else a delivery bug.
					if len(m.Payload) != 2 || int(m.Payload[0]) != int(m.From) || int(m.Payload[1]) != r {
						return fmt.Errorf("party %d round %d: honest sender %d delivered payload %v", id, r, m.From, m.Payload)
					}
				}
				for j := 0; j < n; j++ {
					if corrupt[j] {
						continue
					}
					want := 0
					if activeAt(j, r) {
						want = 1
					}
					if seen[PartyID(j)] != want {
						return fmt.Errorf("party %d round %d: %d messages from honest %d, want %d", id, r, seen[PartyID(j)], j, want)
					}
				}
			}
			return nil
		}
	}

	rusher := func(seed int64) Behavior {
		return func(env *Env) error {
			rng := rand.New(rand.NewSource(seed))
			for {
				spied, err := env.PeekHonest()
				if err != nil {
					if errors.Is(err, ErrSimOver) {
						return nil
					}
					return err
				}
				var out []Packet
				for k := 0; k < 4 && len(spied) > 0; k++ {
					s := spied[rng.Intn(len(spied))]
					payload := s.Payload
					if k%2 == 1 {
						// Mutate a private copy; the snapshot itself must
						// stay pristine for the other peekers.
						mut := make([]byte, len(payload))
						copy(mut, payload)
						mut[rng.Intn(len(mut))] ^= 0xA5
						payload = mut
					}
					out = append(out, Packet{To: PartyID(rng.Intn(n)), Tag: tag, Payload: payload})
				}
				if _, err := env.Exchange(out); err != nil {
					if errors.Is(err, ErrSimOver) {
						return nil
					}
					return err
				}
			}
		}
	}

	parties := make([]Party, n)
	for i := 0; i < n; i++ {
		if corrupt[i] {
			parties[i] = Party{Corrupt: true, Behavior: rusher(int64(i) * 7919)}
		} else {
			parties[i] = Party{Behavior: honest(i)}
		}
	}

	rep, err := Run(Config{N: n, T: numCorrupt + 2}, parties)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds != maxRounds {
		t.Errorf("rounds = %d, want %d", rep.Rounds, maxRounds)
	}
	// Closed-form honest accounting: each active honest broadcast costs
	// 16 bits to each of the n-1 other parties (self-delivery is free).
	var wantHonest int64
	for r := 0; r < maxRounds; r++ {
		for j := 0; j < n; j++ {
			if activeAt(j, r) {
				wantHonest += int64(16 * (n - 1))
			}
		}
	}
	if rep.HonestBits != wantHonest {
		t.Errorf("honest bits = %d, want %d", rep.HonestBits, wantHonest)
	}
	if rep.CorruptBits == 0 {
		t.Error("corrupt bits = 0, rushers should have been charged")
	}
	// BitsByTag breaks down honest bits only; everything here shares one tag.
	if got := rep.BitsByTag[tag]; got != rep.HonestBits {
		t.Errorf("tag bits = %d, want %d", got, rep.HonestBits)
	}
}

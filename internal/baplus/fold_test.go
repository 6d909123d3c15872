package baplus

import (
	"fmt"
	"math/rand"
	"testing"

	"convexagreement/internal/adversary"
	"convexagreement/internal/sim"
	"convexagreement/internal/testutil"
	"convexagreement/internal/transport"
	"convexagreement/internal/wire"
)

// outcome renders a Π_BA+ result so that runs compare as strings.
func outcome(v []byte, ok bool) string {
	if !ok {
		return "⊥"
	}
	return "value " + string(v)
}

// foldInputs is one row of the fold tests' inputs: party i's value at n
// parties with t of them corrupt (the corrupt parties' entries are unused).
type foldInputs struct {
	name  string
	input func(i, n, t int) []byte
}

var foldRows = []foldInputs{
	{"all-same", func(i, n, t int) []byte { return []byte("shared") }},
	{"n-2t-share", func(i, n, t int) []byte {
		if i < n-2*t {
			return []byte("shared")
		}
		return []byte(fmt.Sprintf("solo-%d", i))
	}},
	{"two-clusters", func(i, n, t int) []byte { return []byte(fmt.Sprintf("cluster-%d", i%2)) }},
	{"all-distinct", func(i, n, t int) []byte { return []byte(fmt.Sprintf("solo-%d", i)) }},
}

// TestFoldMatchesPaperAtF0: with every party honest, each party's
// Turpin–Coan grade is the same, so the binary BA the fold drops would have
// returned it unchanged and the folded Π_BA+ returns what the paper's
// listing returns, on every row at n ∈ {4, 7, 16}, in fewer rounds.
func TestFoldMatchesPaperAtF0(t *testing.T) {
	for _, n := range []int{4, 7, 16} {
		tc := (n - 1) / 3
		for _, row := range foldRows {
			run := func(proto func(transport.Net, string, []byte) ([]byte, bool, error)) (string, int) {
				res, err := sim.Collect(sim.Config{N: n, T: tc}, nil, func(env *sim.Env) (string, error) {
					v, ok, err := proto(env, "p", row.input(int(env.ID()), n, tc))
					return outcome(v, ok), err
				})
				if err != nil {
					t.Fatalf("n=%d %s: %v", n, row.name, err)
				}
				agreed, err := testutil.AgreeValue(res)
				if err != nil {
					t.Fatalf("n=%d %s: %v", n, row.name, err)
				}
				return agreed, res.Report.Rounds
			}
			folded, foldedRounds := run(Plus)
			paper, paperRounds := run(plusPaper)
			if folded != paper {
				t.Errorf("n=%d %s: folded %q, paper %q", n, row.name, folded, paper)
			}
			if foldedRounds >= paperRounds {
				t.Errorf("n=%d %s: folded %d rounds, paper %d", n, row.name, foldedRounds, paperRounds)
			}
		}
	}
}

// TestFoldAndPaperMeetTheorem6 runs the folded Π_BA+ and the paper's
// listing on the same rows under all nine catalogue adversaries and a ghost
// that runs the version under test on a poisoned input, at f = t: both must
// meet Theorem 6 — Agreement, Intrusion Tolerance (a non-⊥ output is an
// honest input) and Bounded Pre-Agreement (n−2t honest parties sharing an
// input force a non-⊥ output). Outputs may differ between the two: they are
// runs of different protocols against the same adversary.
func TestFoldAndPaperMeetTheorem6(t *testing.T) {
	versions := []struct {
		name  string
		proto func(transport.Net, string, []byte) ([]byte, bool, error)
	}{{"folded", Plus}, {"paper", plusPaper}}
	strategies := adversary.Catalog()
	rng := rand.New(rand.NewSource(6))
	for _, ver := range versions {
		strategies := append(strategies, adversary.Strategy{
			Name: "ghost-poison",
			Build: func(int64) sim.Behavior {
				return sim.Ghost(func(env *sim.Env) error { _, _, err := ver.proto(env, "p", []byte("POISON")); return err })
			},
		})
		for _, strat := range strategies {
			for _, n := range []int{4, 7, 10} {
				tc := (n - 1) / 3
				for _, row := range foldRows {
					// The corrupt parties are the last t, so the first n−2t
					// parties of a row are honest.
					corrupt := map[int]sim.Behavior{}
					for i := n - tc; i < n; i++ {
						corrupt[i] = strat.Build(rng.Int63())
					}
					honest := map[string]int{}
					for i := 0; i < n-tc; i++ {
						honest["value "+string(row.input(i, n, tc))]++
					}
					name := fmt.Sprintf("%s %s n=%d %s", ver.name, strat.Name, n, row.name)
					res, err := sim.Collect(sim.Config{N: n, T: tc}, corrupt, func(env *sim.Env) (string, error) {
						v, ok, err := ver.proto(env, "p", row.input(int(env.ID()), n, tc))
						return outcome(v, ok), err
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					agreed, err := testutil.AgreeValue(res)
					if err != nil {
						t.Errorf("%s: Agreement: %v", name, err)
						continue
					}
					if agreed != "⊥" && honest[agreed] == 0 {
						t.Errorf("%s: Intrusion Tolerance: %q is no honest input", name, agreed)
					}
					preAgreed := false
					for _, count := range honest {
						preAgreed = preAgreed || count >= n-2*tc
					}
					if preAgreed && agreed == "⊥" {
						t.Errorf("%s: Bounded Pre-Agreement: ⊥ with n−2t honest parties sharing an input", name)
					}
				}
			}
		}
	}
}

// TestFoldedConfirmNeedsG is the schedule the grade conjunct of plus's happy
// bit exists for, scripted at n = 4, t = 1 with party 0 corrupt — the king
// of the confirming phase-king's first phase. Honest parties 1, 2, 3 input
// x, y, z.
//
//   - dist, vote: party 0 sends x to parties 1 and 2 only, so both vote x,
//     see it voted by n−t = 3 and hold a = b = x; party 3 sees two votes and
//     holds a = b = ⊥.
//   - Turpin–Coan: party 0 sends x to party 1 alone in both rounds. Party 1
//     sees x from n−t and re-sends it; parties 2 and 3 see it from two and
//     re-send ⊥. So party 1's candidate is x at t+1 = 2 < n−t support (grade
//     0) and the others have none.
//   - confirm: party 0 votes 1 in the first round, so no honest party sees
//     n−t votes for either bit, and as king sends 1.
//
// If party 1 were happy on "the candidate is a value and mine" alone, the
// king's 1 would be agreed and party 1 would output x while parties 2 and 3
// have no candidate to output. With the grade in the conjunct nobody is
// happy, and all three output ⊥.
func TestFoldedConfirmNeedsG(t *testing.T) {
	const n, tc = 4, 1
	x := []byte("x")
	inputs := [][]byte{nil, x, []byte("y"), []byte("z")}
	to := func(tag string, payload []byte, parties ...int) []sim.Packet {
		out := make([]sim.Packet, len(parties))
		for i, p := range parties {
			out[i] = sim.Packet{To: sim.PartyID(p), Tag: tag, Payload: payload}
		}
		return out
	}
	bits := func(lanes ...byte) []byte {
		frame := make([]byte, transport.LaneBytes(len(lanes)))
		transport.PackLanes(frame, lanes)
		return frame
	}
	tcX := wire.Lanes([][]byte{wire.Some(wire.Some(x)), wire.Some(wire.Some(x))}) // lanes a and b
	script := [][]sim.Packet{
		to("p/dist", wire.Lanes([][]byte{wire.Some(x)}), 1, 2),
		to("p/vote", wire.Lanes([][]byte{appendVote(nil, [][]byte{x})}), 1, 2),
		to("p/val/tc1", tcX, 1),
		to("p/val/tc2", tcX, 1),
		to("p/confirm/pk1", bits(1, 1), 0, 1, 2, 3),
		nil,
		to("p/confirm/pk3", bits(1, 1), 0, 1, 2, 3),
	}
	var resent []sim.PartyID // honest parties that re-sent a value in tc2
	adv := func(env *sim.Env) error {
		for round := 0; ; round++ {
			var out []sim.Packet
			if round < len(script) {
				out = script[round]
			}
			if round == 3 {
				spied, err := env.PeekHonest()
				if err != nil {
					return err
				}
				frame := make([][]byte, 2)
				for _, s := range spied {
					if s.To == 0 && wire.SplitLanes(s.Payload, frame) {
						if _, ok := wire.Option(frame[0]); ok {
							resent = append(resent, s.From)
						}
					}
				}
			}
			if _, err := env.Exchange(out); err != nil {
				return err
			}
		}
	}
	res, err := sim.Collect(sim.Config{N: n, T: tc}, map[int]sim.Behavior{0: adv}, func(env *sim.Env) (string, error) {
		v, ok, err := Plus(env, "p", inputs[env.ID()])
		return outcome(v, ok), err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resent) != 1 || resent[0] != 1 {
		t.Fatalf("honest parties re-sending a value in Turpin–Coan's second round: %v, the schedule wants party 1 alone", resent)
	}
	agreed, err := testutil.AgreeValue(res)
	if err != nil {
		t.Fatalf("Agreement: %v", err)
	}
	if agreed != "⊥" {
		t.Errorf("agreed %q, want ⊥: no honest party graded a candidate n−t", agreed)
	}
}

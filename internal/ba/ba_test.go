package ba_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"convexagreement/internal/adversary"
	"convexagreement/internal/ba"
	"convexagreement/internal/sim"
	"convexagreement/internal/testutil"
	"convexagreement/internal/transport"
	"convexagreement/internal/wire"
)

// runBinary runs Binary with the given per-party inputs; corrupt parties are
// driven by the strategy. inputs[i] is ignored for corrupt parties.
func runBinary(t *testing.T, n, tcount int, inputs []byte, corrupt map[int]sim.Behavior) (*sim.Result[byte], byte) {
	t.Helper()
	res, err := sim.Collect(sim.Config{N: n, T: tcount}, corrupt,
		func(env *sim.Env) (byte, error) {
			return ba.Binary(env, "ba", inputs[env.ID()], nil)
		})
	if err != nil {
		t.Fatalf("n=%d t=%d: %v", n, tcount, err)
	}
	out, err := testutil.AgreeValue(res)
	if err != nil {
		t.Fatalf("agreement violated: %v", err)
	}
	return res, out
}

func TestBinaryValidityAllHonest(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7, 10} {
		tc := (n - 1) / 3
		for _, b := range []byte{0, 1} {
			inputs := bytes.Repeat([]byte{b}, n)
			_, out := runBinary(t, n, tc, inputs, nil)
			if out != b {
				t.Errorf("n=%d: validity violated: all input %d, output %d", n, b, out)
			}
		}
	}
}

func TestBinaryAgreementMixedInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(8)
		tc := (n - 1) / 3
		inputs := make([]byte, n)
		for i := range inputs {
			inputs[i] = byte(rng.Intn(2))
		}
		_, out := runBinary(t, n, tc, inputs, nil)
		if out > 1 {
			t.Errorf("output %d not a bit", out)
		}
	}
}

func TestBinaryUnderAdversaries(t *testing.T) {
	for _, strat := range adversary.Catalog() {
		strat := strat
		t.Run(strat.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			for trial := 0; trial < 6; trial++ {
				n := 4 + rng.Intn(9)
				tc := (n - 1) / 3
				if tc == 0 {
					continue
				}
				corrupt := make(map[int]sim.Behavior, tc)
				for len(corrupt) < tc {
					corrupt[rng.Intn(n)] = strat.Build(int64(trial))
				}
				inputs := make([]byte, n)
				pre := rng.Intn(2) == 0 // sometimes test the pre-agreement case
				for i := range inputs {
					if pre {
						inputs[i] = 1
					} else {
						inputs[i] = byte(rng.Intn(2))
					}
				}
				_, out := runBinary(t, n, tc, inputs, corrupt)
				if pre && out != 1 {
					t.Errorf("n=%d %s: validity violated under adversary", n, strat.Name)
				}
			}
		})
	}
}

func TestBinaryRejectsBadInput(t *testing.T) {
	_, err := sim.Collect(sim.Config{N: 1, T: 0}, nil, func(env *sim.Env) (byte, error) {
		return ba.Binary(env, "ba", 7, nil)
	})
	if err == nil {
		t.Error("input 7 accepted")
	}
}

func TestBinaryRoundCount(t *testing.T) {
	n, tc := 7, 2
	inputs := make([]byte, n)
	res, _ := runBinary(t, n, tc, inputs, nil)
	if res.Report.Rounds != ba.BinaryRounds(tc) {
		t.Errorf("rounds = %d, want %d", res.Report.Rounds, ba.BinaryRounds(tc))
	}
	lanes := make([][]byte, n)
	for i := range lanes {
		lanes[i] = make([]byte, 21)
	}
	if res, _ := runBits(t, n, tc, lanes, nil); res.Report.Rounds != ba.BinaryRounds(tc) {
		t.Errorf("21 lanes: rounds = %d, want %d", res.Report.Rounds, ba.BinaryRounds(tc))
	}
}

// runBits runs Bits with the given per-party lane inputs and returns the
// agreed lanes; inputs[i] is ignored for corrupt parties.
func runBits(t *testing.T, n, tcount int, inputs [][]byte, corrupt map[int]sim.Behavior) (*sim.Result[string], []byte) {
	t.Helper()
	res, err := sim.Collect(sim.Config{N: n, T: tcount}, corrupt,
		func(env *sim.Env) (string, error) {
			out, err := ba.Bits(env, "ba", inputs[env.ID()], nil)
			return string(out), err
		})
	if err != nil {
		t.Fatalf("n=%d t=%d: %v", n, tcount, err)
	}
	out, err := testutil.AgreeValue(res)
	if err != nil {
		t.Fatalf("agreement violated: %v", err)
	}
	return res, []byte(out)
}

// laneInputs draws k lanes for n parties: lane l is pre-agreed on l%2 when
// l%3 != 2 and mixed otherwise, so every frame carries lanes of both kinds
// side by side. The returned slice names each lane's pre-agreed bit, 2 for
// a mixed lane.
func laneInputs(rng *rand.Rand, n, k int) (inputs [][]byte, pre []byte) {
	inputs, pre = make([][]byte, n), make([]byte, k)
	for i := range inputs {
		inputs[i] = make([]byte, k)
	}
	for l := range pre {
		pre[l] = 2
		if l%3 != 2 {
			pre[l] = byte(l % 2)
		}
		for i := range inputs {
			inputs[i][l] = pre[l]
			if pre[l] == 2 {
				inputs[i][l] = byte(rng.Intn(2))
			}
		}
	}
	return inputs, pre
}

// TestBitsUnderAdversaries is Definition 2 lane by lane at f = t: whatever
// the corrupt parties do to a frame, the honest parties agree on every lane
// (runBits compares the whole vectors), every lane is a bit, and a lane the
// honest parties entered agreeing comes out as they entered it — also when
// its neighbours in the same byte were mixed.
func TestBitsUnderAdversaries(t *testing.T) {
	for _, strat := range adversary.Catalog() {
		t.Run(strat.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			for trial, k := range []int{1, 2, 4, 5, 9, 21} {
				n := 4 + rng.Intn(9)
				tc := (n - 1) / 3
				corrupt := make(map[int]sim.Behavior, tc)
				for len(corrupt) < tc {
					corrupt[rng.Intn(n)] = strat.Build(int64(trial))
				}
				inputs, pre := laneInputs(rng, n, k)
				_, out := runBits(t, n, tc, inputs, corrupt)
				for l, b := range out {
					if b > 1 || (pre[l] != 2 && b != pre[l]) {
						t.Errorf("n=%d k=%d %s: lane %d = %d, honest parties all input %d", n, k, strat.Name, l, b, pre[l])
					}
				}
			}
		})
	}
}

// TestBitsLaneIndependence: at f = 0 lane l of Bits is Binary on lane l's
// inputs — sharing a frame, the rounds and the kings changes no lane's
// outcome.
func TestBitsLaneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, k := range []int{1, 3, 4, 7, 21} {
		n := 4 + rng.Intn(13)
		tc := (n - 1) / 3
		inputs := make([][]byte, n)
		for i := range inputs {
			inputs[i] = make([]byte, k)
			for l := range inputs[i] {
				inputs[i][l] = byte(rng.Intn(2))
			}
		}
		_, out := runBits(t, n, tc, inputs, nil)
		for l := range out {
			column := make([]byte, n)
			for i := range column {
				column[i] = inputs[i][l]
			}
			if _, want := runBinary(t, n, tc, column, nil); out[l] != want {
				t.Errorf("n=%d k=%d: lane %d = %d, Binary on its inputs %v = %d", n, k, l, out[l], column, want)
			}
		}
	}
}

// TestBitsSpammingKing drives the king's round end to end. n = 4, t = 1 and
// the first king is corrupt: it stays out of rounds 1 and 2, so a lane the
// three honest parties split on reaches round 3 with no proposal support and
// takes whatever the king's messages say, while a lane they agree on keeps
// its value. The king sends every party the same five messages; per lane the
// last well-formed bit counts, a malformed message is skipped whole, and a
// lane the king never sent a bit in reads 0.
func TestBitsSpammingKing(t *testing.T) {
	const n, tc = 4, 1 // seven lanes
	const bot = transport.LaneBot
	pack := func(lanes ...byte) []byte {
		frame := make([]byte, transport.LaneBytes(len(lanes)))
		transport.PackLanes(frame, lanes)
		return frame
	}
	spam := [][]byte{
		pack(1, 1, 1, 1, 1, 0, bot),
		pack(0, 0, 0, 0, 0, 0, 0)[:1],         // short: no frame
		{0x00, 0x40},                          // a bit above lane 6: no frame
		pack(0, bot, 3, 1, 0, 0, 3),           // lanes 1, 2 and 6 carry no bit
		pack(1, 1, 1, 1, 1, 1, 1, 0, 0)[:3:3], // long: no frame
	}
	want := []byte{0, 1, 1, 1, 0, 1, 0}
	king := func(env *sim.Env) error {
		for round := 0; ; round++ {
			var out []sim.Packet
			if round == 2 {
				for to := 0; to < n; to++ {
					for _, frame := range spam {
						out = append(out, sim.Packet{To: sim.PartyID(to), Tag: "ba/pk3", Payload: frame})
					}
				}
			}
			if _, err := env.Exchange(out); err != nil {
				return err
			}
		}
	}
	// Parties 1 and 2 split on every lane but 5, where all three input 1.
	inputs := [][]byte{nil, {0, 0, 0, 0, 0, 1, 0}, {1, 1, 1, 1, 1, 1, 1}, {0, 1, 0, 1, 0, 1, 0}}
	_, out := runBits(t, n, tc, inputs, map[int]sim.Behavior{0: king})
	if !bytes.Equal(out, want) {
		t.Errorf("agreed lanes %v, want %v", out, want)
	}
}

type mvOut struct {
	val string
	ok  bool
}

// multivalued is multivalued BA on k lanes as TurpinCoan's godoc composes
// it: Turpin–Coan, then one Bits instance on the grades; a lane that agreed
// 0 is ⊥ (nil), one that agreed 1 is the party's candidate, the same at
// every honest party by the candidate lemma. Both run on one work set, as
// Π_BA+ runs them: the candidates are views of it that the Bits instance
// leaves be.
func multivalued(env transport.Net, tag string, inputs [][]byte) ([][]byte, error) {
	w := new(ba.Work)
	cands, g, err := ba.TurpinCoan(env, tag, inputs, w)
	if err != nil {
		return nil, err
	}
	bits, err := ba.Bits(env, tag+"/tcba", g, w)
	if err != nil {
		return nil, err
	}
	for l, bit := range bits {
		if bit == 0 {
			cands[l] = nil
		}
	}
	return cands, nil
}

func runMultivalued(t *testing.T, n, tc int, inputs [][]byte, corrupt map[int]sim.Behavior) (*sim.Result[mvOut], mvOut) {
	t.Helper()
	res, err := sim.Collect(sim.Config{N: n, T: tc}, corrupt,
		func(env *sim.Env) (mvOut, error) {
			out, err := multivalued(env, "mv", [][]byte{inputs[env.ID()]})
			if err != nil {
				return mvOut{}, err
			}
			v, ok := wire.Option(out[0])
			return mvOut{val: string(v), ok: ok}, nil
		})
	if err != nil {
		t.Fatalf("n=%d t=%d: %v", n, tc, err)
	}
	out, err := testutil.AgreeValue(res)
	if err != nil {
		t.Fatalf("agreement violated: %v", err)
	}
	return res, out
}

func TestMultivaluedValidity(t *testing.T) {
	for _, n := range []int{1, 4, 7, 9} {
		tc := (n - 1) / 3
		for _, val := range []string{"", "x", "a-much-longer-shared-input-value-0123456789"} {
			inputs := make([][]byte, n)
			for i := range inputs {
				inputs[i] = []byte(val)
			}
			_, out := runMultivalued(t, n, tc, inputs, nil)
			if !out.ok || out.val != val {
				t.Errorf("n=%d: validity violated for %q: got (%q,%v)", n, val, out.val, out.ok)
			}
		}
	}
}

func TestMultivaluedMixedInputsIntrusionSafe(t *testing.T) {
	// With honest-only mixed inputs, any ok=true output must be one of the
	// honest inputs (a structural property of Turpin–Coan at t < n/3).
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 15; trial++ {
		n := 4 + rng.Intn(7)
		tc := (n - 1) / 3
		inputs := make([][]byte, n)
		inputSet := make(map[string]bool)
		for i := range inputs {
			inputs[i] = []byte(fmt.Sprintf("val-%d", rng.Intn(3)))
			inputSet[string(inputs[i])] = true
		}
		_, out := runMultivalued(t, n, tc, inputs, nil)
		if out.ok && !inputSet[out.val] {
			t.Errorf("output %q is no party's input", out.val)
		}
	}
}

func TestMultivaluedUnderAdversaries(t *testing.T) {
	for _, strat := range adversary.Catalog() {
		strat := strat
		t.Run(strat.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			for trial := 0; trial < 4; trial++ {
				n := 7 + rng.Intn(6)
				tc := (n - 1) / 3
				corrupt := make(map[int]sim.Behavior, tc)
				for len(corrupt) < tc {
					corrupt[rng.Intn(n)] = strat.Build(int64(trial) + 100)
				}
				inputs := make([][]byte, n)
				honestSet := make(map[string]bool)
				for i := range inputs {
					inputs[i] = []byte(fmt.Sprintf("w%d", rng.Intn(2)))
					if _, bad := corrupt[i]; !bad {
						honestSet[string(inputs[i])] = true
					}
				}
				_, out := runMultivalued(t, n, tc, inputs, corrupt)
				if out.ok && !honestSet[out.val] {
					t.Errorf("%s: intruded value %q agreed", strat.Name, out.val)
				}
			}
		})
	}
}

func TestMultivaluedPreAgreementUnderAdversary(t *testing.T) {
	// All honest share one value; every adversary must fail to displace it.
	for _, strat := range adversary.Catalog() {
		n, tc := 10, 3
		corrupt := map[int]sim.Behavior{1: strat.Build(9), 4: strat.Build(10), 8: strat.Build(11)}
		inputs := make([][]byte, n)
		for i := range inputs {
			inputs[i] = []byte("the-agreed-value")
		}
		_, out := runMultivalued(t, n, tc, inputs, corrupt)
		if !out.ok || out.val != "the-agreed-value" {
			t.Errorf("%s: pre-agreement broken: (%q,%v)", strat.Name, out.val, out.ok)
		}
	}
}

// runMultivaluedLanes runs multivalued on per-party lane vectors and
// returns the agreed lanes, each read through wire.Option.
func runMultivaluedLanes(t *testing.T, n, tc int, inputs [][][]byte, corrupt map[int]sim.Behavior) []mvOut {
	t.Helper()
	res, err := sim.Collect(sim.Config{N: n, T: tc}, corrupt,
		func(env *sim.Env) ([]mvOut, error) {
			out, err := multivalued(env, "mv", inputs[env.ID()])
			lanes := make([]mvOut, len(out))
			for l, frame := range out {
				v, ok := wire.Option(frame)
				lanes[l] = mvOut{val: string(v), ok: ok}
			}
			return lanes, err
		})
	if err != nil {
		t.Fatalf("n=%d t=%d: %v", n, tc, err)
	}
	var agreed []mvOut
	for id, lanes := range res.Outputs {
		if agreed == nil {
			agreed = lanes
		} else if !slices.Equal(lanes, agreed) {
			t.Fatalf("agreement violated: party %d has %v, another %v", id, lanes, agreed)
		}
	}
	return agreed
}

// TestMultivaluedLaneIndependence: lane l of a k-lane instance is the
// one-lane protocol on lane l's inputs. The lanes are drawn so that every
// pre-agreement level occurs — all honest parties on one value, n−t of
// them, a split, all distinct — under silent and crashing parties; each
// lane's result must equal the one-lane run on its column, and must not
// move when the other lanes are permuted or redrawn.
func TestMultivaluedLaneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	values := [][]byte{{}, []byte("a"), []byte("b"), []byte("a-longer-value")}
	outcomes := map[bool]int{} // lanes that agreed on a value, on ⊥
	for trial, k := range []int{1, 2, 3, 6, 6} {
		n := 4 + rng.Intn(10)
		tc := (n - 1) / 3
		corrupt := map[int]sim.Behavior{}
		for len(corrupt) < tc {
			if trial%2 == 0 {
				corrupt[rng.Intn(n)] = adversary.Silent()
			} else {
				corrupt[rng.Intn(n)] = adversary.Crash(2 + rng.Intn(6))
			}
		}
		draw := func(l int) [][]byte {
			column := make([][]byte, n)
			for i := range column {
				switch l % 4 {
				case 0:
					column[i] = values[1]
				case 1:
					column[i] = values[1]
					if i >= n-tc {
						column[i] = values[2]
					}
				case 2:
					column[i] = values[i%2]
				default:
					column[i] = []byte(fmt.Sprintf("v%d", rng.Intn(1<<20)))
				}
			}
			return column
		}
		columns := make([][][]byte, k)
		for l := range columns {
			columns[l] = draw(rng.Intn(4))
		}
		rows := func(columns [][][]byte) [][][]byte {
			inputs := make([][][]byte, n)
			for i := range inputs {
				for _, c := range columns {
					inputs[i] = append(inputs[i], c[i])
				}
			}
			return inputs
		}
		out := runMultivaluedLanes(t, n, tc, rows(columns), corrupt)
		for l, c := range columns {
			outcomes[out[l].ok]++
			if _, want := runMultivalued(t, n, tc, c, corrupt); out[l] != want {
				t.Errorf("n=%d k=%d: lane %d = %+v, one-lane run on its column %+v", n, k, l, out[l], want)
			}
		}
		perm := rng.Perm(k)
		permuted := make([][][]byte, k)
		for l, p := range perm {
			permuted[p] = columns[l]
		}
		redrawn := make([][][]byte, k)
		for l := range redrawn {
			redrawn[l] = draw(rng.Intn(4))
		}
		redrawn[0] = columns[0]
		gotPermuted := runMultivaluedLanes(t, n, tc, rows(permuted), corrupt)
		gotRedrawn := runMultivaluedLanes(t, n, tc, rows(redrawn), corrupt)
		for l, p := range perm {
			if gotPermuted[p] != out[l] {
				t.Errorf("n=%d k=%d: lane %d moved to %d reads %+v, was %+v", n, k, l, p, gotPermuted[p], out[l])
			}
		}
		if gotRedrawn[0] != out[0] {
			t.Errorf("n=%d k=%d: lane 0 reads %+v with the other lanes redrawn, was %+v", n, k, gotRedrawn[0], out[0])
		}
	}
	if outcomes[true] == 0 || outcomes[false] == 0 {
		t.Errorf("lanes by outcome %v: the table no longer reaches both a value and ⊥", outcomes)
	}
}

// tcOut is one party's TurpinCoan result.
type tcOut struct {
	cands [][]byte
	g     []byte
}

// TestTurpinCoanCandidates holds TurpinCoan to the three guarantees its
// godoc states and Π_BA+'s fold rests on, at n ∈ {4, 7, 16} and k ∈ {1, 6}
// under all nine catalogue adversaries at f = t, lane by lane:
//
//   - the candidate lemma: if any honest party has g = 1, every honest party
//     holds the same candidate, and it is a value;
//   - validity: a lane every honest party entered with v has g = 1 and the
//     candidate wire.Some(v) at every honest party;
//   - a present candidate is the input of at least n−2t honest parties.
//
// The lanes cover every pre-agreement level: all honest parties on one
// value, n−t of all parties, n−2t, a two-way split, all distinct.
func TestTurpinCoanCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	graded := map[string]int{} // lanes by how many honest parties graded them n−t
	for _, strat := range adversary.Catalog() {
		for _, n := range []int{4, 7, 16} {
			for _, k := range []int{1, 6} {
				tc := (n - 1) / 3
				corrupt := map[int]sim.Behavior{}
				for len(corrupt) < tc {
					corrupt[rng.Intn(n)] = strat.Build(rng.Int63())
				}
				inputs := make([][][]byte, n)
				for i := range inputs {
					inputs[i] = make([][]byte, k)
				}
				for l := 0; l < k; l++ {
					kind := (l + rng.Intn(5)) % 5
					for i := range inputs {
						v := []byte("v")
						switch {
						case kind == 1 && i >= n-tc, kind == 2 && i >= n-2*tc:
							v = []byte{byte(i)}
						case kind == 3:
							v = []byte{byte(i % 2)}
						case kind == 4:
							v = []byte(fmt.Sprintf("v%d", i))
						}
						inputs[i][l] = v
					}
				}
				res, err := sim.Collect(sim.Config{N: n, T: tc}, corrupt, func(env *sim.Env) (tcOut, error) {
					cands, g, err := ba.TurpinCoan(env, "tc", inputs[env.ID()], nil)
					return tcOut{cands, g}, err
				})
				if err != nil {
					t.Fatalf("%s n=%d k=%d: %v", strat.Name, n, k, err)
				}
				for l := 0; l < k; l++ {
					name := fmt.Sprintf("%s n=%d k=%d lane %d", strat.Name, n, k, l)
					holders := map[string]int{} // honest inputs on the lane, with how many parties hold each
					for id := range res.Outputs {
						holders[string(inputs[id][l])]++
					}
					ones, first := 0, res.Outputs[firstID(res.Outputs)]
					for id, out := range res.Outputs {
						ones += int(out.g[l])
						if v, ok := wire.Option(out.cands[l]); ok && holders[string(v)] < n-2*tc {
							t.Errorf("%s: party %d's candidate %q is the input of %d honest parties, below n−2t", name, id, v, holders[string(v)])
						}
						if len(holders) == 1 {
							want := wire.Some(inputs[id][l])
							if out.g[l] != 1 || !bytes.Equal(out.cands[l], want) {
								t.Errorf("%s: every honest party input %q, party %d has g = %d, candidate %x", name, inputs[id][l], id, out.g[l], out.cands[l])
							}
						}
					}
					if ones > 0 {
						for id, out := range res.Outputs {
							if _, ok := wire.Option(out.cands[l]); !ok || !bytes.Equal(out.cands[l], first.cands[l]) {
								t.Errorf("%s: %d honest parties graded n−t, but party %d's candidate is %x, another's %x", name, ones, id, out.cands[l], first.cands[l])
							}
						}
					}
					switch {
					case ones == 0:
						graded["none"]++
					case ones == len(res.Outputs):
						graded["all"]++
					default:
						graded["some"]++
					}
				}
			}
		}
	}
	t.Logf("lanes by honest parties graded n−t: %v", graded)
	if graded["none"] == 0 || graded["all"] == 0 {
		t.Errorf("lanes by grade %v: the table no longer reaches both grades", graded)
	}
}

func firstID[T any](m map[sim.PartyID]T) sim.PartyID {
	for id := range m {
		return id
	}
	return -1
}

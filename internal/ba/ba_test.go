package ba_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"convexagreement/internal/adversary"
	"convexagreement/internal/ba"
	"convexagreement/internal/sim"
	"convexagreement/internal/testutil"
	"convexagreement/internal/transport"
)

// runBinary runs Binary with the given per-party inputs; corrupt parties are
// driven by the strategy. inputs[i] is ignored for corrupt parties.
func runBinary(t *testing.T, n, tcount int, inputs []byte, corrupt map[int]sim.Behavior) (*testutil.Result[byte], byte) {
	t.Helper()
	res, err := testutil.Run(sim.Config{N: n, T: tcount}, corrupt,
		func(env *sim.Env) (byte, error) {
			return ba.Binary(env, "ba", inputs[env.ID()])
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
	_, err := testutil.Run(sim.Config{N: 1, T: 0}, nil, func(env *sim.Env) (byte, error) {
		return ba.Binary(env, "ba", 7)
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
func runBits(t *testing.T, n, tcount int, inputs [][]byte, corrupt map[int]sim.Behavior) (*testutil.Result[string], []byte) {
	t.Helper()
	res, err := testutil.Run(sim.Config{N: n, T: tcount}, corrupt,
		func(env *sim.Env) (string, error) {
			out, err := ba.Bits(env, "ba", inputs[env.ID()])
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

func runMultivalued(t *testing.T, n, tc int, inputs [][]byte, corrupt map[int]sim.Behavior) (*testutil.Result[mvOut], mvOut) {
	t.Helper()
	res, err := testutil.Run(sim.Config{N: n, T: tc}, corrupt,
		func(env *sim.Env) (mvOut, error) {
			v, ok, err := ba.Multivalued(env, "mv", inputs[env.ID()])
			return mvOut{val: string(v), ok: ok}, err
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

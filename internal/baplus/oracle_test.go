package baplus

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"convexagreement/internal/adversary"
	"convexagreement/internal/ba"
	"convexagreement/internal/sim"
	"convexagreement/internal/testutil"
	"convexagreement/internal/transport"
	"convexagreement/internal/transporttest"
	"convexagreement/internal/wire"
)

// The two functions Plus's picks over a transport.Tally replaced, kept
// verbatim as the oracle: a map[string]int per round (and one more per
// vote), sort.Strings, and a []byte(key) round trip per value.

func oracleSupportedValues(in []transport.Message, threshold, max int) [][]byte {
	counts := make(map[string]int)
	for _, m := range transport.FirstPerSender(in) {
		counts[string(m.Payload)]++
	}
	var out []string
	for s, c := range counts {
		if c >= threshold {
			out = append(out, s)
		}
	}
	sort.Strings(out)
	if len(out) > max {
		out = out[:max]
	}
	vals := make([][]byte, len(out))
	for i, s := range out {
		vals[i] = []byte(s)
	}
	return vals
}

func oracleVotedValues(in []transport.Message, threshold int) [][]byte {
	counts := make(map[string]int)
	for _, m := range transport.FirstPerSender(in) {
		r := wire.NewReader(m.Payload)
		k := r.Byte()
		if r.Err() != nil || k > 2 {
			continue
		}
		unique := make(map[string]bool, 2)
		for i := byte(0); i < k; i++ {
			v := r.Bytes()
			if r.Err() != nil {
				break
			}
			unique[string(v)] = true
		}
		if r.Err() != nil || r.Close() != nil {
			continue
		}
		for s := range unique {
			counts[s]++
		}
	}
	var keys []string
	for s, c := range counts {
		if c >= threshold {
			keys = append(keys, s)
		}
	}
	sort.Strings(keys)
	if len(keys) > 2 {
		keys = keys[:2]
	}
	vals := make([][]byte, len(keys))
	for i, s := range keys {
		vals[i] = []byte(s)
	}
	return vals
}

// votePool is what the vote round can carry: VOTE(), VOTE(v), VOTE(v, w),
// a vote naming one value twice, and the malformed ones — three values, a
// count that overstates, a truncated value, trailing bytes.
var votePool = [][]byte{
	appendVote(nil, nil), appendVote(nil, [][]byte{[]byte("a")}), appendVote(nil, [][]byte{[]byte("b")}),
	appendVote(nil, [][]byte{[]byte("a"), []byte("b")}), appendVote(nil, [][]byte{[]byte("b"), []byte("c")}),
	appendVote(nil, [][]byte{[]byte("a"), []byte("a")}), appendVote(nil, [][]byte{{}, []byte("a")}),
	appendVote(nil, [][]byte{[]byte("a"), []byte("b"), []byte("c")}),
	{2, 1, 'a'}, {1, 5, 'a'}, append(appendVote(nil, [][]byte{[]byte("a")}), 0), {3},
}

func sameValues(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// checkPlusPicks holds lines 2 and 3 of Plus to the functions they
// replaced, lane by lane of one inbox of k-lane frames (lane l read by
// transporttest.LaneInbox): once as a round of distributed values, whose
// entries are option frames, and once as a round of votes.
func checkPlusPicks(t *testing.T, in []transport.Message, threshold, k int) {
	t.Helper()
	seen, votes := make([]transport.Tally, k), make([]transport.Tally, k)
	transport.LaneTallies(in, seen, make([][]byte, k), transport.AddOption)
	transport.LaneTallies(in, votes, make([][]byte, k), addVote)
	for l := range seen {
		laneIn := transporttest.LaneInbox(in, k, l)
		var values []transport.Message
		for _, m := range laneIn {
			if v, ok := wire.Option(m.Payload); ok {
				values = append(values, transport.Message{From: m.From, Payload: v})
			}
		}
		if got, want := atLeast(nil, seen[l], threshold), oracleSupportedValues(values, threshold, 2); !sameValues(got, want) {
			t.Fatalf("lane %d/%d, values from ≥ %d: got %q, oracle %q on %v", l, k, threshold, got, want, in)
		}
		if got, want := atLeast(nil, votes[l], threshold), oracleVotedValues(laneIn, threshold); !sameValues(got, want) {
			t.Fatalf("lane %d/%d, voted by ≥ %d: got %q, oracle %q on %v", l, k, threshold, got, want, in)
		}
	}
}

func TestPlusPicksMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 5000; trial++ {
		k := 1 + trial%6
		pool := transporttest.LanePool(votePool, k)
		raw := make([]byte, 2*rng.Intn(14))
		rng.Read(raw)
		for i := 1; i < len(raw); i += 2 {
			if rng.Intn(4) > 0 {
				raw[i] = byte(rng.Intn(len(pool)))
			}
		}
		for threshold := 1; threshold <= 9; threshold++ {
			checkPlusPicks(t, transporttest.Inbox(raw, pool), threshold, k)
		}
	}
}

func FuzzPlusPicks(f *testing.F) {
	f.Add([]byte{}, uint8(1), uint8(0))
	f.Add([]byte{0, 3, 1, 3, 2, 4, 3, 4, 4, 5, 4, 3}, uint8(2), uint8(1))
	f.Add([]byte{0, 7, 1, 8, 2, 9, 3, 10, 4, 0xFF, 5, 0xFE, 6, 200, 1, 2, 3, 7, 25, 0, 26}, uint8(1), uint8(4))
	f.Fuzz(func(t *testing.T, raw []byte, threshold, k uint8) {
		lanes := 1 + int(k%6)
		checkPlusPicks(t, transporttest.Inbox(raw, transporttest.LanePool(votePool, lanes)), int(threshold%10), lanes)
	})
}

// plusRef is Π_BA+ run the way the paper lists it — line 4 tries a, and
// only if a is not confirmed does line 5 try b — with each attempt folded as
// plus folds it: a one-lane ba.TurpinCoan and a ba.Binary on "graded n−t, a
// value, and mine". Its rounds carry the one-lane frames of the sequential
// listing's time (a raw value, a raw vote). It is the oracle of the batched
// body: b's stage reads nothing from a's outcome, so lane by lane the two
// must return the same.
func plusRef(env transport.Net, tag string, input []byte) ([]byte, bool, error) {
	return sequential(env, tag, input, foldedAttempt)
}

// plusPaper is the listing with each attempt as the paper states it: a
// multivalued BA on the candidate (Turpin–Coan and its own binary BA on the
// grade), then the confirming binary BA on "the agreed value is mine and a
// value". It is the oracle of the fold.
func plusPaper(env transport.Net, tag string, input []byte) ([]byte, bool, error) {
	return sequential(env, tag, input, paperAttempt)
}

// attempt is one of lines 4–5 on one candidate frame: the agreed value and
// whether it was confirmed.
type attempt func(env transport.Net, tag string, cand []byte) ([]byte, bool, error)

// sequential is the §7 listing with lines 4 and 5 run one after the other.
func sequential(env transport.Net, tag string, input []byte, try attempt) ([]byte, bool, error) {
	n, t := env.N(), env.T()
	in, err := transport.ExchangeAll(env, tag+"/dist", input, nil)
	if err != nil {
		return nil, false, err
	}
	var seen transport.Tally
	for _, m := range transport.FirstPerSender(in) {
		seen.Add(m.Payload)
	}
	in, err = transport.ExchangeAll(env, tag+"/vote", appendVote(nil, atLeast(nil, seen, n-2*t)), nil)
	if err != nil {
		return nil, false, err
	}
	var votes transport.Tally
	for _, m := range transport.FirstPerSender(in) {
		addVote(&votes, m.Payload)
	}
	a, b := wire.None(), wire.None()
	if voted := atLeast(nil, votes, n-t); len(voted) > 0 {
		a = wire.Some(voted[0])
		b = wire.Some(voted[len(voted)-1])
	}
	out, ok, err := try(env, tag+"/a", a)
	if err != nil || ok {
		return out, ok, err
	}
	return try(env, tag+"/b", b)
}

func foldedAttempt(env transport.Net, tag string, cand []byte) ([]byte, bool, error) {
	cands, g, err := ba.TurpinCoan(env, tag+"/val", [][]byte{cand}, nil)
	if err != nil {
		return nil, false, err
	}
	got, _ := wire.Option(cands[0])
	val, present := wire.Option(got)
	return confirm(env, tag, val, g[0] == 1 && present && bytes.Equal(got, cand))
}

func paperAttempt(env transport.Net, tag string, cand []byte) ([]byte, bool, error) {
	cands, g, err := ba.TurpinCoan(env, tag+"/val", [][]byte{cand}, nil)
	if err != nil {
		return nil, false, err
	}
	bit, err := ba.Binary(env, tag+"/val/tcba", g[0], nil)
	if err != nil {
		return nil, false, err
	}
	var got []byte
	if bit == 1 {
		got, _ = wire.Option(cands[0])
	}
	val, present := wire.Option(got)
	return confirm(env, tag, val, present && bytes.Equal(got, cand))
}

// confirm is the attempt's last step: binary BA on happy, val on 1.
func confirm(env transport.Net, tag string, val []byte, happy bool) ([]byte, bool, error) {
	in := byte(0)
	if happy {
		in = 1
	}
	confirmed, err := ba.Binary(env, tag+"/confirm", in, nil)
	if err != nil || confirmed == 0 {
		return nil, false, err
	}
	return val, true, nil
}

// TestPlusLanesMatchSequential runs the batched body on k lanes and plusRef
// on every lane's column, at n ∈ {4, 7, 16} under silent, crashing,
// garbage-sending and ghost parties (the ghosts run the protocol under test
// with b's value as their input), on lanes with no honest cluster, one (the
// Bounded Pre-Agreement threshold n−2t, or more, on a or on b) or two (a
// and b both voted, which takes the ghosts' support): every lane's result must be the
// sequential one, including the lanes where a and b are both confirmed and
// the listing's order picks a.
func TestPlusLanesMatchSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	outcomes := map[string]int{}
	for trial := 0; trial < 16; trial++ {
		n := []int{4, 7, 16}[trial%3]
		tc, k, kind := (n-1)/3, 1+rng.Intn(4), trial/4
		bad := map[int]bool{}
		for i := 0; i < tc; i++ {
			bad[(7*trial+3*i)%n] = true
		}
		columns := make([][][]byte, k)
		for l := range columns {
			clusters := rng.Intn(4)
			columns[l] = make([][]byte, n)
			honest := 0
			for i := range columns[l] {
				columns[l][i] = []byte(fmt.Sprintf("solo-%d-%d", l, i))
				switch {
				case bad[i] && clusters == 2:
					columns[l][i] = []byte("cluster-b") // a ghost's input
				case bad[i]:
				case clusters == 3 && honest < n-2*tc:
					columns[l][i] = []byte("cluster-b")
				case clusters >= 1 && clusters < 3 && honest < n-2*tc:
					columns[l][i] = []byte("cluster-a")
				case clusters == 1 && rng.Intn(2) == 0:
					columns[l][i] = []byte("cluster-a")
				case clusters == 2:
					columns[l][i] = []byte("cluster-b")
				}
				if !bad[i] {
					honest++
				}
			}
		}
		column := func(env *sim.Env, l int) []byte { return columns[l][env.ID()] }
		corrupt := func(ghost func(env *sim.Env) error) map[int]sim.Behavior {
			c := map[int]sim.Behavior{}
			for i := range bad {
				switch kind {
				case 0:
					c[i] = adversary.Silent()
				case 1:
					c[i] = adversary.Crash(trial % 9)
				case 2:
					c[i] = adversary.Garbage(int64(trial*10+i), 64)
				default:
					c[i] = testutil.Ghost(ghost)
				}
			}
			return c
		}
		batched := func(env *sim.Env) ([]string, error) {
			inputs := make([][]byte, k)
			for l := range inputs {
				inputs[l] = column(env, l)
			}
			out, err := plus(env, "p", inputs, nil)
			lanes := make([]string, len(out))
			for l, frame := range out {
				if v, ok := wire.Option(frame); ok {
					lanes[l] = "value " + string(v)
				} else {
					lanes[l] = "⊥"
				}
			}
			return lanes, err
		}
		got, err := testutil.Run(sim.Config{N: n, T: tc}, corrupt(func(env *sim.Env) error { _, err := batched(env); return err }), batched)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for l := range columns {
			sequential := func(env *sim.Env) (string, error) {
				v, ok, err := plusRef(env, "p", column(env, l))
				if !ok {
					return "⊥", err
				}
				return "value " + string(v), err
			}
			want, err := testutil.Run(sim.Config{N: n, T: tc}, corrupt(func(env *sim.Env) error { _, err := sequential(env); return err }), sequential)
			if err != nil {
				t.Fatalf("trial %d lane %d: reference: %v", trial, l, err)
			}
			for id, lanes := range got.Outputs {
				if lanes[l] != want.Outputs[id] {
					t.Errorf("trial %d n=%d k=%d party %d lane %d: batched %q, sequential %q", trial, n, k, id, l, lanes[l], want.Outputs[id])
				}
			}
			outcomes[want.Outputs[firstKey(want.Outputs)]]++
		}
	}
	t.Logf("lanes by outcome: %v", outcomes)
	if outcomes["⊥"] == 0 || outcomes["value cluster-a"] == 0 || outcomes["value cluster-b"] == 0 {
		t.Errorf("outcomes %v: the table no longer reaches ⊥, a and b", outcomes)
	}
}

func firstKey[T any](m map[int]T) int {
	for id := range m {
		return id
	}
	return -1
}

package highcostca

import (
	"bytes"
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"convexagreement/internal/adversary"
	"convexagreement/internal/faultnet"
	"convexagreement/internal/sim"
	"convexagreement/internal/transport"
	"convexagreement/internal/transporttest"
	"convexagreement/internal/wire"
)

// nonCanonical is a scripted corrupt party aimed at the byte-level reading
// of naturals. It rushes every round and sends each party two messages:
// the first is one of
//
//   - an honest payload behind leading zero bytes: a natural that counts
//     for the honest value, or an honest interval with each end so padded
//     (a round without honest traffic — the king's, for a corrupt king —
//     takes the last honest payload seen),
//   - the empty payload (0, or a malformed interval),
//   - a malformed interval: a truncated honest payload, or one with a byte
//     trailing it,
//   - an inverted interval, lo > hi, whose lo is shorter once trimmed than
//     its raw bytes, and
//
// the second is the next kind on the list, so every party's first-message
// rule is exercised too. Which kind a party gets first depends on the round
// and on the party, so honest parties see different ones.
func nonCanonical() sim.Behavior {
	return func(env *sim.Env) error {
		var out []sim.Packet
		var bufs [2][]byte
		var honest []byte // a snapshot copy: never rewritten
		for round := 0; ; round++ {
			spied, err := env.PeekHonest()
			if err != nil {
				return err
			}
			if len(spied) > 0 {
				honest = spied[(round*7)%len(spied)].Payload
			}
			// Room for every payload up front: the carved views stay in one
			// array.
			buf := slices.Grow(bufs[round%2][:0], 2*env.N()*(len(honest)+8))
			kinds := func(kind int) []byte {
				mark := len(buf)
				switch kind % 4 {
				case 0:
					r := wire.NewReader(honest)
					lo, hi := r.Bytes(), r.Bytes()
					if r.Close() == nil {
						buf = wire.AppendBytes(buf, append([]byte{0, 0}, lo...))
						buf = wire.AppendBytes(buf, append([]byte{0}, hi...))
					} else {
						buf = append(append(buf, 0, 0), honest...)
					}
				case 1:
				case 2:
					if len(honest) > 0 {
						buf = append(buf, honest[:len(honest)-1]...)
					} else {
						buf = append(buf, 0, 0, 7)
					}
				case 3:
					buf = wire.AppendBytes(wire.AppendBytes(buf, []byte{0, 0, 9, 9}), []byte{0, 1})
				}
				return buf[mark:len(buf):len(buf)]
			}
			out = out[:0]
			for to := range env.N() {
				first := round + to
				out = append(out,
					sim.Packet{To: sim.PartyID(to), Tag: "adv", Payload: kinds(first)},
					sim.Packet{To: sim.PartyID(to), Tag: "adv", Payload: kinds(first + 1)})
			}
			bufs[round%2] = buf
			if _, err := env.Exchange(out); err != nil {
				return err
			}
		}
	}
}

// diffInputs are the instances TestRunMatchesReference runs back to back
// at n parties: 4096-bit values sharing their top half, small values with
// zeros among them, values of mixed lengths, and one value for all.
func diffInputs(n int) [][]*big.Int {
	rng := rand.New(rand.NewSource(int64(n)))
	top := new(big.Int).Lsh(new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 2048)), 2048)
	inputs := make([][]*big.Int, 4)
	for i := range n {
		inputs[0] = append(inputs[0], new(big.Int).Or(top, new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 2048))))
		inputs[1] = append(inputs[1], big.NewInt(rng.Int63n(3)*rng.Int63n(300)))
		inputs[2] = append(inputs[2], new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(8*i))))
		inputs[3] = append(inputs[3], big.NewInt(424242))
	}
	return inputs
}

// diffRun is one arm of TestRunMatchesReference: every honest party's
// outputs, its transcript digest, and the simulator's cost report.
type diffRun struct {
	outputs map[sim.PartyID]string
	digests map[sim.PartyID]uint64
	report  string
}

// runArm runs the instances one after another at every honest party, by
// runRef or by Run on one Work per party — Reset and Scribbled between
// instances, as core.Buffers keeps it — on the simulator's sender-sorted
// inboxes or, reversed, on every inbox out of sender order
// (transporttest.Reverse).
func runArm(t *testing.T, n int, strat adversary.Strategy, inputs [][]*big.Int, ref, reversed bool) diffRun {
	t.Helper()
	tc := (n - 1) / 3
	corrupt := map[int]sim.Behavior{}
	for i := range tc {
		corrupt[3*i] = strat.Build(int64(7 + i))
	}
	type party struct {
		outs   string
		digest uint64
	}
	res, err := sim.Collect(sim.Config{N: n, T: tc}, corrupt, func(env *sim.Env) (party, error) {
		digest := faultnet.Wrap(env, nil) // empty plan: a transcript digest
		var net transport.Net = digest
		if reversed {
			net = transporttest.Reverse(digest)
		}
		var p party
		var w Work
		for a, in := range inputs {
			var out *big.Int
			if ref {
				v, err := runRef(net, "hc", in[env.ID()])
				if err != nil {
					return p, fmt.Errorf("instance %d: %w", a, err)
				}
				out = v
			} else {
				nat, err := Run(net, "hc", in[env.ID()].Bytes(), &w)
				if err != nil {
					return p, fmt.Errorf("instance %d: %w", a, err)
				}
				if len(nat) > 0 && nat[0] == 0 {
					return p, fmt.Errorf("instance %d: output %x is not canonical", a, nat)
				}
				out = new(big.Int).SetBytes(nat)
				w.Reset()
				w.Scribble()
			}
			p.outs += out.String() + " "
		}
		p.digest = digest.Transcript()
		return p, nil
	})
	if err != nil {
		t.Fatalf("ref=%v: %v", ref, err)
	}
	run := diffRun{outputs: map[sim.PartyID]string{}, digests: map[sim.PartyID]uint64{}}
	for id, p := range res.Outputs {
		run.outputs[id], run.digests[id] = p.outs, p.digest
	}
	rep := *res.Report
	rep.PartyErrors = nil // the corrupt parties' exits
	run.report = fmt.Sprintf("%+v", rep)
	return run
}

// TestRunMatchesReference holds Run, on canonical bytes and one reused
// Work, to runRef, the math/big listing it replaced, at n ∈ {4, 7, 16}
// under every catalogue strategy and the scripted nonCanonical party, on
// sender-sorted inboxes (in which spam and nonCanonical repeat senders)
// and on reversed ones: the same outputs at every honest party, the same
// transcript of everything each was delivered, and the same cost report.
func TestRunMatchesReference(t *testing.T) {
	strategies := append(adversary.Catalog(), adversary.Strategy{Name: "non-canonical", Build: func(int64) sim.Behavior { return nonCanonical() }})
	for _, n := range []int{4, 7, 16} {
		inputs := diffInputs(n)
		for _, strat := range strategies {
			for _, reversed := range []bool{false, true} {
				name := fmt.Sprintf("n%d/%s", n, strat.Name)
				if reversed {
					name += "/reversed"
				}
				t.Run(name, func(t *testing.T) {
					got, want := runArm(t, n, strat, inputs, false, reversed), runArm(t, n, strat, inputs, true, reversed)
					for id, outs := range want.outputs {
						if got.outputs[id] != outs {
							t.Errorf("party %d: outputs %v, reference %v", id, got.outputs[id], outs)
						}
						if got.digests[id] != want.digests[id] {
							t.Errorf("party %d: transcript %#x, reference %#x", id, got.digests[id], want.digests[id])
						}
					}
					if got.report != want.report {
						t.Errorf("cost reports differ:\nRun:    %.300s\nrunRef: %.300s", got.report, want.report)
					}
				})
			}
		}
	}
}

// FuzzNatOrder holds the byte-level reading of naturals to math/big: trim
// gives the canonical encoding of the number any bytes read as, and natCmp
// on trimmed bytes orders them as big.Int.Cmp orders the numbers.
func FuzzNatOrder(f *testing.F) {
	f.Add([]byte{}, []byte{0})
	f.Add([]byte{0, 1, 0}, []byte{2})
	f.Add([]byte{0xFF}, []byte{1, 0})
	f.Add([]byte{0, 0, 9, 9}, []byte{0, 0, 0, 9, 9})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		x, y := new(big.Int).SetBytes(a), new(big.Int).SetBytes(b)
		ta, tb := trim(a), trim(b)
		if !bytes.Equal(ta, x.Bytes()) || !bytes.Equal(tb, y.Bytes()) {
			t.Fatalf("trim(%x) = %x, trim(%x) = %x; canonical %x, %x", a, ta, b, tb, x.Bytes(), y.Bytes())
		}
		if got, want := natCmp(ta, tb), x.Cmp(y); got != want {
			t.Fatalf("natCmp(%x, %x) = %d, big.Int.Cmp %d", ta, tb, got, want)
		}
	})
}

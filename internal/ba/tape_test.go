package ba_test

import (
	"testing"

	"convexagreement/internal/ba"
	"convexagreement/internal/sim"
	"convexagreement/internal/transport"
)

// The tape adversary's alphabet for one lane of one packet of ba.Bits.
const (
	tapeSilent  byte = iota // nothing; a packet all of whose lanes are silent is not sent
	tapeZero                // the bit 0
	tapeOne                 // the bit 1
	tapeBot                 // ⊥
	tapeGarbage             // lane value 3; a packet all of whose lanes are garbage is not a frame at all
	tapeChoices
)

// tape is a choice tape: the corrupt party's every decision, one byte each,
// read in order; past its end every choice is silence. A tape replays: the
// same bytes make the same run.
type tape struct {
	b   []byte
	pos int
}

func (tp *tape) next() byte {
	if tp.pos >= len(tp.b) {
		return tapeSilent
	}
	tp.pos++
	return tp.b[tp.pos-1] % tapeChoices
}

// tapeBits is a rushing corrupt party against k-lane ba.Bits, driven by tp:
// every round it peeks at the honest wave, then for each other party in
// ascending order and each lane in turn takes one choice off the tape.
func tapeBits(tp *tape, k int) sim.Behavior {
	return func(env *sim.Env) error {
		lanes := make([]byte, k)
		var out []sim.Packet
		for {
			if _, err := env.PeekHonest(); err != nil {
				return err // ErrSimOver once the honest parties are done
			}
			out = out[:0]
			for to := range env.N() {
				if to == env.ID() {
					continue
				}
				silent, garbage := 0, 0
				for l := range lanes {
					switch c := tp.next(); c {
					case tapeZero, tapeOne:
						lanes[l] = c - tapeZero
					case tapeGarbage:
						lanes[l] = 3
						garbage++
					default:
						lanes[l] = transport.LaneBot
						if c == tapeSilent {
							silent++
						}
					}
				}
				if silent == k {
					continue
				}
				frame := make([]byte, transport.LaneBytes(k), transport.LaneBytes(k)+1)
				transport.PackLanes(frame, lanes)
				if garbage == k {
					frame = append(frame, 0xff)
				}
				out = append(out, sim.Packet{To: to, Tag: "tape", Payload: frame})
			}
			if _, err := env.Exchange(out); err != nil {
				return err
			}
		}
	}
}

// checkBitsTape runs Bits at n = 4, t = 1 on k lanes against the tape
// adversary and asserts Definition 2 on every lane. data is the corrupt
// party (data[0] mod 4), the honest inputs (bit l·4 + i of data[1] is
// party i's lane-l input, l < 2) and the tape (the rest).
func checkBitsTape(t *testing.T, data []byte, k int) {
	const n, tc = 4, 1
	var head [2]byte
	copy(head[:], data)
	bad := int(head[0] % n)
	inputs := make([][]byte, n)
	for i := range inputs {
		inputs[i] = make([]byte, k)
		for l := range inputs[i] {
			inputs[i][l] = head[1] >> (4*l + i) & 1
		}
	}
	corrupt := map[int]sim.Behavior{bad: tapeBits(&tape{b: data[min(2, len(data)):]}, k)}
	res, err := sim.Collect(sim.Config{N: n, T: tc}, corrupt, func(env *sim.Env) (string, error) {
		out, err := ba.Bits(env, "ba", inputs[env.ID()], nil)
		return string(out), err
	})
	if err != nil {
		t.Fatalf("k=%d, corrupt %d: %v", k, bad, err)
	}
	if res.Report.Rounds > ba.BinaryRounds(tc) {
		t.Fatalf("k=%d, corrupt %d: %d rounds, want at most %d", k, bad, res.Report.Rounds, ba.BinaryRounds(tc))
	}
	var out []byte
	for id, o := range res.Outputs {
		if out == nil {
			out = []byte(o)
		} else if o != string(out) {
			t.Fatalf("k=%d, corrupt %d: agreement violated: party %d output %v, another %v", k, bad, id, []byte(o), out)
		}
	}
	for l := range k {
		if out[l] > 1 {
			t.Fatalf("k=%d, corrupt %d: lane %d output %d is not a bit", k, bad, l, out[l])
		}
		honest := (bad + 1) % n // validity: if every honest input is this one's, so is the output
		agreed := true
		for i := range inputs {
			agreed = agreed && (i == bad || inputs[i][l] == inputs[honest][l])
		}
		if agreed && out[l] != inputs[honest][l] {
			t.Fatalf("k=%d, corrupt %d: lane %d: validity violated: honest inputs %d, output %d", k, bad, l, inputs[honest][l], out[l])
		}
	}
}

// FuzzBitsTape is Definition 2 of ba.Bits under every schedule a tape can
// spell: at n = 4, t = 1, the corrupt party is a rushing adversary whose
// every message — per round, per recipient, per lane — the input picks from
// {silent, 0, 1, ⊥, garbage}. Each input runs Bits on one lane and on two.
func FuzzBitsTape(f *testing.F) {
	// attackN1 splits the honest parties at the round-1 proposal threshold:
	// at n−t−1 = 2 the honest party that gets the corrupt 0 in the honest
	// king's phase proposes 0 beside two proposals of 1, one party locks 1
	// and the king, seeing a 2–2 tie, sends 0. Corrupt party 0, honest
	// inputs 1, 1, 0; six rounds of choices for parties 1, 2, 3.
	attackN1 := []byte{
		tapeOne, tapeZero, tapeZero, tapeBot, tapeBot, tapeBot, tapeOne, tapeZero, tapeOne,
		tapeOne, tapeZero, tapeOne, tapeZero, tapeZero, tapeOne, tapeSilent, tapeSilent, tapeSilent,
	}
	// attackN2 splits them at the round-2 lock threshold: at n−t−1 = 2
	// party 3 locks 1 on one honest proposal and the corrupt one, while the
	// honest king sends ⊥ (read as 0); the corrupt king of the last phase
	// then confirms the split. Corrupt party 1, honest inputs 1, 1, 0;
	// choices for parties 0, 2, 3.
	attackN2 := []byte{
		tapeZero, tapeOne, tapeZero, tapeBot, tapeBot, tapeOne, tapeSilent, tapeSilent, tapeSilent,
		tapeOne, tapeOne, tapeOne, tapeBot, tapeBot, tapeBot, tapeZero, tapeZero, tapeOne,
	}
	// onLane1 is a one-lane tape as lane 1 of a two-lane one, lane 0 fixed
	// to fill.
	onLane1 := func(sched []byte, fill byte) []byte {
		out := make([]byte, 0, 2*len(sched))
		for _, c := range sched {
			out = append(out, fill, c)
		}
		return out
	}
	f.Add([]byte{0, 0b0110})
	f.Add([]byte{3, 0b1111, tapeGarbage, tapeGarbage, tapeGarbage})
	f.Add(append([]byte{0, 0b0110}, attackN1...))
	f.Add(append([]byte{1, 0b0101}, attackN2...))
	f.Add(append([]byte{0, 0b0110_1111}, onLane1(attackN1, tapeGarbage)...))
	f.Add(append([]byte{1, 0b0101_0000}, onLane1(attackN2, tapeOne)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkBitsTape(t, data, 1)
		checkBitsTape(t, data, 2)
	})
}

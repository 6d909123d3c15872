package sim

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"convexagreement/internal/transport"
	"convexagreement/internal/transporttest"
)

// honestEcho broadcasts its id for `rounds` rounds and records its inboxes.
func honestEcho(rounds int, log *sync.Map) Behavior {
	return func(env *Env) error {
		for r := 0; r < rounds; r++ {
			in, err := transport.ExchangeAll(env, "echo", []byte{byte(env.ID())}, nil)
			if err != nil {
				return err
			}
			log.Store(fmt.Sprintf("%d/%d", env.ID(), r), transporttest.Cloned(in)) // the inbox lives until the next Exchange
		}
		return nil
	}
}

func TestAllToAllDelivery(t *testing.T) {
	var log sync.Map
	n := 5
	parties := make([]Party, n)
	for i := range parties {
		parties[i] = Party{Behavior: honestEcho(3, &log)}
	}
	rep, err := Run(Config{N: n, T: 1}, parties)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds != 3 {
		t.Errorf("rounds = %d, want 3", rep.Rounds)
	}
	for id := 0; id < n; id++ {
		for r := 0; r < 3; r++ {
			v, ok := log.Load(fmt.Sprintf("%d/%d", id, r))
			if !ok {
				t.Fatalf("party %d round %d missing inbox", id, r)
			}
			in := v.([]Message)
			if len(in) != n {
				t.Fatalf("party %d round %d: %d messages, want %d", id, r, len(in), n)
			}
			for j, m := range in {
				if int(m.From) != j || int(m.Payload[0]) != j {
					t.Fatalf("party %d round %d: message %d = from %d payload %v", id, r, j, m.From, m.Payload)
				}
			}
		}
	}
	// Accounting: 3 rounds × n senders × (n-1) non-self recipients × 8 bits.
	wantBits := int64(3 * n * (n - 1) * 8)
	if rep.HonestBits != wantBits {
		t.Errorf("honest bits = %d, want %d", rep.HonestBits, wantBits)
	}
	if rep.BitsByTag["echo"] != wantBits {
		t.Errorf("tag bits = %d, want %d", rep.BitsByTag["echo"], wantBits)
	}
	if rep.RoundsByTag["echo"] != 3 || len(rep.RoundsByTag) != 1 {
		t.Errorf("tag rounds = %v, want echo: 3", rep.RoundsByTag)
	}
	if rep.CorruptBits != 0 {
		t.Errorf("corrupt bits = %d, want 0", rep.CorruptBits)
	}
	var perParty int64
	for _, b := range rep.BitsByParty {
		perParty += b
	}
	if perParty != wantBits {
		t.Errorf("per-party sum = %d, want %d", perParty, wantBits)
	}
}

func TestRushingAdversarySeesHonestPackets(t *testing.T) {
	n := 4
	var seen []Spied
	var echoed []Message
	parties := make([]Party, n)
	for i := 0; i < 3; i++ {
		id := i
		parties[i] = Party{Behavior: func(env *Env) error {
			in, err := transport.ExchangeAll(env, "t", []byte{0xA0 + byte(id)}, nil)
			if err != nil {
				return err
			}
			if int(env.ID()) == 0 {
				echoed = transporttest.Cloned(in) // read once the run is over
			}
			return nil
		}}
	}
	parties[3] = Party{Corrupt: true, Behavior: func(env *Env) error {
		spied, err := env.PeekHonest()
		if err != nil {
			return err
		}
		seen = spied
		// Rush: copy party 2's payload into our own round message.
		var stolen []byte
		for _, s := range spied {
			if s.From == 2 && s.To == 0 {
				stolen = s.Payload
			}
		}
		_, err = transport.ExchangeAll(env, "t", stolen, nil)
		return err
	}}
	rep, err := Run(Config{N: n, T: 1}, parties)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3*n {
		t.Errorf("adversary saw %d packets, want %d", len(seen), 3*n)
	}
	if len(echoed) != n {
		t.Fatalf("party 0 received %d messages", len(echoed))
	}
	// The corrupt party (From=3) delivered party 2's payload in the same round.
	if echoed[3].From != 3 || echoed[3].Payload[0] != 0xA2 {
		t.Errorf("rushed copy = from %d payload %v", echoed[3].From, echoed[3].Payload)
	}
	if rep.CorruptBits != int64(8*(n-1)) {
		t.Errorf("corrupt bits = %d", rep.CorruptBits)
	}
}

// TestPeekSharesBroadcastCopy: the rushing snapshot copies a broadcast —
// a sender's n packets on one payload slice, as transport.ExchangeAll
// builds them — once, and its n entries share that copy; packets on
// distinct slices get a copy each however equal their bytes. Party 0
// broadcasts, party 1 sends each party an equal but separate slice, and
// party 2 sends one slice twice, another, then the first again: three runs.
func TestPeekSharesBroadcastCopy(t *testing.T) {
	const n = 4
	bcast := []byte{0xb0, 0xb1, 0xb2}
	sent := [][]Packet{
		make([]Packet, n),
		make([]Packet, n),
		{{To: 0, Payload: bcast[:2]}, {To: 1, Payload: bcast[:2]}, {To: 2, Payload: bcast[1:]}, {To: 3, Payload: bcast[:2]}},
	}
	for to := range n {
		sent[0][to] = Packet{To: to, Tag: "b", Payload: bcast}
		sent[1][to] = Packet{To: to, Payload: []byte{0xc0, 0xc1}}
	}
	var seen []Spied
	parties := make([]Party, n)
	for id, out := range sent {
		parties[id] = Party{Behavior: func(env *Env) error {
			_, err := env.Exchange(out)
			return err
		}}
	}
	parties[n-1] = Party{Corrupt: true, Behavior: func(env *Env) error {
		var err error
		if seen, err = env.PeekHonest(); err != nil {
			return err
		}
		_, err = env.Exchange(nil)
		return err
	}}
	if _, err := Run(Config{N: n, T: 1}, parties); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3*n {
		t.Fatalf("snapshot has %d entries, want %d", len(seen), 3*n)
	}
	// copies[i] is the copy index of entry i: a new one wherever the
	// payload is not the previous entry's very slice.
	wantCopies := []int{0, 0, 0, 0, 1, 2, 3, 4, 5, 5, 6, 7}
	copies := -1
	for i, s := range seen {
		p := sent[s.From][s.To]
		if s.From != i/n || s.To != p.To || !bytes.Equal(s.Payload, p.Payload) {
			t.Fatalf("entry %d: %+v, want the packet %+v of party %d", i, s, p, i/n)
		}
		if transport.SamePayload(s.Payload, p.Payload) {
			t.Fatalf("entry %d aliases the honest payload instead of copying it", i)
		}
		if i == 0 || !transport.SamePayload(s.Payload, seen[i-1].Payload) {
			copies++
		}
		if copies != wantCopies[i] {
			t.Fatalf("entry %d is copy %d, want %d: a broadcast shares one copy, distinct slices get their own", i, copies, wantCopies[i])
		}
	}
}

func TestCorruptLoopTerminatesWhenHonestFinish(t *testing.T) {
	n := 4
	parties := make([]Party, n)
	var honestRounds = 5
	for i := 0; i < 3; i++ {
		parties[i] = Party{Behavior: func(env *Env) error {
			for r := 0; r < honestRounds; r++ {
				if _, err := transport.ExchangeAll(env, "x", []byte{1}, nil); err != nil {
					return err
				}
			}
			return nil
		}}
	}
	var corruptErr error
	parties[3] = Party{Corrupt: true, Behavior: func(env *Env) error {
		for {
			if _, err := env.PeekHonest(); err != nil {
				corruptErr = err
				return err
			}
			if _, err := transport.ExchangeNone(env); err != nil {
				corruptErr = err
				return err
			}
		}
	}}
	rep, err := Run(Config{N: n, T: 1}, parties)
	if err != nil {
		t.Fatalf("corrupt error leaked into run error: %v", err)
	}
	if !errors.Is(corruptErr, ErrSimOver) {
		t.Errorf("corrupt exit error = %v, want ErrSimOver", corruptErr)
	}
	if rep.Rounds != honestRounds {
		t.Errorf("rounds = %d, want %d", rep.Rounds, honestRounds)
	}
}

func TestStaggeredCompletionDoesNotDeadlock(t *testing.T) {
	// Parties running different round counts is a protocol bug in the real
	// model, but the scheduler must degrade gracefully, not hang.
	lengths := []int{1, 3, 3}
	parties := make([]Party, 3)
	for i, l := range lengths {
		rounds := l
		parties[i] = Party{Behavior: func(env *Env) error {
			for r := 0; r < rounds; r++ {
				if _, err := transport.ExchangeAll(env, "x", []byte{2}, nil); err != nil {
					return err
				}
			}
			return nil
		}}
	}
	rep, err := Run(Config{N: 3, T: 0}, parties)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds != 3 {
		t.Errorf("rounds = %d, want 3", rep.Rounds)
	}
}

func TestMaxRoundsCutoff(t *testing.T) {
	parties := []Party{
		{Behavior: func(env *Env) error {
			for {
				if _, err := transport.ExchangeNone(env); err != nil {
					return err
				}
			}
		}},
	}
	_, err := Run(Config{N: 1, T: 0, MaxRounds: 10}, parties)
	if !errors.Is(err, ErrCutoff) {
		t.Errorf("err = %v, want cutoff", err)
	}
}

func TestHonestErrorFailsRun(t *testing.T) {
	boom := errors.New("boom")
	parties := []Party{
		{Behavior: func(env *Env) error { return boom }},
		{Behavior: func(env *Env) error { return nil }},
	}
	_, err := Run(Config{N: 2, T: 0}, parties)
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
}

func TestCorruptPanicIsContained(t *testing.T) {
	parties := []Party{
		{Behavior: func(env *Env) error {
			_, err := transport.ExchangeAll(env, "x", []byte{1}, nil)
			return err
		}},
		{Corrupt: true, Behavior: func(env *Env) error { panic("byzantine panic") }},
	}
	rep, err := Run(Config{N: 2, T: 1}, parties)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if rep.PartyErrors[1] == nil {
		t.Error("panic not recorded")
	}
}

func TestHonestCannotPeek(t *testing.T) {
	var peekErr error
	parties := []Party{
		{Behavior: func(env *Env) error {
			_, peekErr = env.PeekHonest()
			return nil
		}},
	}
	if _, err := Run(Config{N: 1, T: 0}, parties); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(peekErr, ErrNotCorrupt) {
		t.Errorf("peek err = %v", peekErr)
	}
}

func TestOutOfRangePacketsDropped(t *testing.T) {
	var got []Message
	parties := []Party{
		{Behavior: func(env *Env) error {
			out := []Packet{
				{To: 99, Tag: "x", Payload: []byte{1}},
				{To: -1, Tag: "x", Payload: []byte{2}},
				{To: 0, Tag: "x", Payload: []byte{3}},
			}
			in, err := env.Exchange(out)
			got = transporttest.Cloned(in) // read once the run is over
			return err
		}},
	}
	if _, err := Run(Config{N: 1, T: 0}, parties); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Payload[0] != 3 {
		t.Errorf("inbox = %v", got)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{N: 0, T: 0}, nil); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := Run(Config{N: 2, T: 2}, make([]Party, 2)); err == nil {
		t.Error("t=n accepted")
	}
	if _, err := Run(Config{N: 2, T: 0}, make([]Party, 1)); err == nil {
		t.Error("behavior count mismatch accepted")
	}
	all := []Party{{Corrupt: true, Behavior: func(*Env) error { return nil }}}
	if _, err := Run(Config{N: 1, T: 0}, all); err == nil {
		t.Error("all-corrupt accepted")
	}
}

func TestDeterministicReports(t *testing.T) {
	run := func() *Report {
		var log sync.Map
		parties := make([]Party, 4)
		for i := range parties {
			parties[i] = Party{Behavior: honestEcho(4, &log)}
		}
		rep, err := Run(Config{N: 4, T: 1}, parties)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.HonestBits != b.HonestBits || a.Rounds != b.Rounds || a.Messages != b.Messages {
		t.Error("reports differ across identical runs")
	}
	if !reflect.DeepEqual(a.BitsByTag, b.BitsByTag) {
		t.Error("tag breakdown differs")
	}
}

// TestInboxLivesUntilNextExchange: a delivered inbox — the []Message slice
// and the payloads in it — stays intact until its owner's next Exchange,
// however far the other parties have run ahead. Party n−1 is a rushing
// party: after each delivery it peeks the next round, which returns only
// once every honest party has submitted that round, while party n−2 (also
// corrupt) submits at once; only then does it compare the inbox with the
// copy it took on delivery. Under -race a scheduler that refilled the
// inbox early is also a reported race.
func TestInboxLivesUntilNextExchange(t *testing.T) {
	const n, rounds = 7, 20
	parties := make([]Party, n)
	for i := 0; i < n-2; i++ {
		parties[i] = Party{Behavior: func(env *Env) error {
			for r := 0; r < rounds; r++ {
				if _, err := transport.ExchangeAll(env, "h", []byte{byte(env.ID()), byte(r)}, nil); err != nil {
					return err
				}
			}
			return nil
		}}
	}
	parties[n-2] = Party{Corrupt: true, Behavior: func(env *Env) error {
		for r := 0; ; r++ {
			if _, err := transport.ExchangeAll(env, "c", []byte{0xc0, byte(r)}, nil); err != nil {
				return err
			}
		}
	}}
	var checked int
	parties[n-1] = Party{Corrupt: true, Behavior: func(env *Env) error {
		var in []Message
		var kept []Message
		for r := 0; ; r++ {
			if r > 0 {
				if _, err := env.PeekHonest(); err != nil {
					return err
				}
				for i, m := range in {
					if m.From != kept[i].From || !bytes.Equal(m.Payload, kept[i].Payload) {
						t.Errorf("round %d: inbox entry %d changed to %v before the next Exchange, was %v", r-1, i, m, kept[i])
					}
				}
				checked++
			}
			var err error
			if in, err = transport.ExchangeAll(env, "c", []byte{0xc1, byte(r)}, nil); err != nil {
				return err
			}
			kept = kept[:0]
			for _, m := range in {
				kept = append(kept, Message{From: m.From, Payload: bytes.Clone(m.Payload)})
			}
		}
	}}
	if _, err := Run(Config{N: n, T: 2}, parties); err != nil {
		t.Fatal(err)
	}
	if checked != rounds-1 {
		t.Errorf("checked %d inboxes, want %d", checked, rounds-1)
	}
}

// TestRandMatchesFreshSource: Env.Rand's draws are those of a fresh
// math/rand source on the same seed, on a party's first call of a run, on
// a second call within it, and in later runs, which reseed the source the
// pooled arenas kept with its read position mid-word.
func TestRandMatchesFreshSource(t *testing.T) {
	const n = 4
	draw := func(rng *rand.Rand) []byte {
		b := make([]byte, 3) // a partial word leaves the read position mid-word
		rng.Read(b)
		b = append(b, byte(rng.Intn(251)))
		tail := make([]byte, 5)
		rng.Read(tail)
		return append(b, tail...)
	}
	for run := range 3 {
		got := make([][]byte, n)
		parties := make([]Party, n)
		for i := range parties {
			parties[i] = Party{Behavior: func(env *Env) error {
				seed := int64(10*run) + int64(env.ID())
				first := draw(env.Rand(seed))
				got[env.ID()] = append(first, draw(env.Rand(seed))...)
				return nil
			}}
		}
		if _, err := Run(Config{N: n, T: 1}, parties); err != nil {
			t.Fatal(err)
		}
		for id, g := range got {
			seed := int64(10*run) + int64(id)
			want := append(draw(rand.New(rand.NewSource(seed))), draw(rand.New(rand.NewSource(seed)))...)
			if !bytes.Equal(g, want) {
				t.Errorf("run %d party %d drew %x, want %x", run, id, g, want)
			}
		}
	}
}

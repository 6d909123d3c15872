package sim

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// honestEcho broadcasts its id for `rounds` rounds and records its inboxes.
func honestEcho(rounds int, log *sync.Map) Behavior {
	return func(env *Env) error {
		for r := 0; r < rounds; r++ {
			in, err := env.ExchangeAll("echo", []byte{byte(env.ID())})
			if err != nil {
				return err
			}
			log.Store(fmt.Sprintf("%d/%d", env.ID(), r), in)
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
			in, err := env.ExchangeAll("t", []byte{0xA0 + byte(id)})
			if err != nil {
				return err
			}
			if int(env.ID()) == 0 {
				echoed = in
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
		_, err = env.ExchangeAll("t", stolen)
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

func TestCorruptLoopTerminatesWhenHonestFinish(t *testing.T) {
	n := 4
	parties := make([]Party, n)
	var honestRounds = 5
	for i := 0; i < 3; i++ {
		parties[i] = Party{Behavior: func(env *Env) error {
			for r := 0; r < honestRounds; r++ {
				if _, err := env.ExchangeAll("x", []byte{1}); err != nil {
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
			if _, err := env.ExchangeNone(); err != nil {
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
				if _, err := env.ExchangeAll("x", []byte{2}); err != nil {
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
				if _, err := env.ExchangeNone(); err != nil {
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
			_, err := env.ExchangeAll("x", []byte{1})
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
			got = in
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

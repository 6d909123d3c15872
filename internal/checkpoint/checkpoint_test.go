package checkpoint

import (
	"math/big"
	"os"
	"path/filepath"
	"testing"

	"convexagreement/internal/transport"
)

func msg(from int, payload string) transport.Message {
	return transport.Message{From: transport.PartyID(from), Payload: []byte(payload)}
}

// writeSampleLog records meta + one completed instance + one partial
// instance with two rounds, returning the directory. The partial instance
// switched slots: it lives in "wal.1", generation 1.
func writeSampleLog(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	log, st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.HasMeta || st.Seq != 0 || st.Partial != nil {
		t.Fatalf("fresh log not empty: %+v", st)
	}
	if err := log.AppendMeta(7, 2); err != nil {
		t.Fatal(err)
	}
	if err := log.AppendInstance(&Instance{Seq: 0, Kind: KindAgree, Protocol: "optimal", Input: big.NewInt(42)}); err != nil {
		t.Fatal(err)
	}
	if err := log.AppendRound([]transport.Message{msg(0, "a"), msg(3, "bb")}); err != nil {
		t.Fatal(err)
	}
	if err := log.AppendEnd(big.NewInt(-41)); err != nil {
		t.Fatal(err)
	}
	if err := log.AppendInstance(&Instance{
		Seq: 1, Kind: KindApprox, Input: big.NewInt(10), Diam: big.NewInt(100), Eps: big.NewInt(2),
	}); err != nil {
		t.Fatal(err)
	}
	if err := log.AppendRound([]transport.Message{msg(1, "x")}); err != nil {
		t.Fatal(err)
	}
	if err := log.AppendRound(nil); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestRoundTrip(t *testing.T) {
	dir := writeSampleLog(t)
	st, err := InspectOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !st.HasMeta || st.N != 7 || st.T != 2 {
		t.Errorf("meta = %v %d/%d", st.HasMeta, st.N, st.T)
	}
	if st.Seq != 1 {
		t.Errorf("seq = %d, want 1", st.Seq)
	}
	if st.NextRound != 3 {
		t.Errorf("next round = %d, want 3", st.NextRound)
	}
	p := st.Partial
	if p == nil {
		t.Fatal("no partial instance recovered")
	}
	if p.Seq != 1 || p.Kind != KindApprox || p.Input.Int64() != 10 || p.Diam.Int64() != 100 || p.Eps.Int64() != 2 {
		t.Errorf("partial = %+v", p)
	}
	if len(p.Rounds) != 2 {
		t.Fatalf("partial rounds = %d, want 2", len(p.Rounds))
	}
	r0 := p.Rounds[0]
	if len(r0) != 1 || r0[0].From != 1 || string(r0[0].Payload) != "x" {
		t.Errorf("round 0 = %v", r0)
	}
	if len(p.Rounds[1]) != 0 {
		t.Errorf("round 1 = %v", p.Rounds[1])
	}
}

// TestLastOutputSurvives: the live slot's completed instance keeps its
// output in State.Last, across a reopen, until the next instance switches
// the slot: a finished log still says what its last agreement returned,
// and a log that has moved on holds no Last.
func TestLastOutputSurvives(t *testing.T) {
	dir := t.TempDir()
	log, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for seq, step := range []func() error{
		func() error { return log.AppendMeta(4, 1) },
		func() error {
			return log.AppendInstance(&Instance{Kind: KindAgree, Protocol: "optimal", Input: big.NewInt(5)})
		},
		func() error { return log.AppendRound(nil) },
		func() error { return log.AppendEnd(big.NewInt(42)) },
	} {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", seq, err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := InspectOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Seq != 1 || st.Partial != nil || st.Last == nil || st.Last.Seq != 0 || !st.Last.Done || st.Last.Output.Int64() != 42 || st.Last.Rounds != nil {
		t.Fatalf("finished log: seq %d, partial %v, last %+v", st.Seq, st.Partial, st.Last)
	}
	log, _, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.AppendInstance(&Instance{Seq: 1, Kind: KindAgree, Protocol: "optimal", Input: big.NewInt(6)}); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = InspectOptions(dir, Options{}); err != nil || st.Last != nil || st.Partial == nil {
		t.Fatalf("log inside instance 1: last %+v, partial %v, err %v", st.Last, st.Partial, err)
	}
}

// TestTornTail truncates the WAL at every possible byte boundary inside the
// final record and checks recovery silently drops the torn record, keeps
// everything before it, and leaves the log appendable.
func TestTornTail(t *testing.T) {
	dir := writeSampleLog(t)
	path := filepath.Join(dir, "wal.1")
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	full, err := InspectOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Find the final record's start: re-truncating to len-1 must drop
	// exactly one round. Walk every truncation point from len-1 down until
	// the recovered round count drops again.
	for cut := len(whole) - 1; cut > 0; cut-- {
		if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := InspectOptions(dir, Options{})
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if st.NextRound > full.NextRound {
			t.Fatalf("cut=%d: recovered more rounds than written", cut)
		}
		// Inspect truncated the torn bytes; the file must now re-open to
		// the same state (recovery is idempotent).
		st2, err := InspectOptions(dir, Options{})
		if err != nil {
			t.Fatalf("cut=%d reopen: %v", cut, err)
		}
		if st2.NextRound != st.NextRound || st2.Seq != st.Seq {
			t.Fatalf("cut=%d: recovery not idempotent: %d/%d then %d/%d",
				cut, st.Seq, st.NextRound, st2.Seq, st2.NextRound)
		}
		// Restore for the next cut.
		if err := os.WriteFile(path, whole, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTornTailCorruptCRC flips a byte in the final record: replay must drop
// that record only.
func TestTornTailCorruptCRC(t *testing.T) {
	dir := writeSampleLog(t)
	path := filepath.Join(dir, "wal.1")
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	damaged := append([]byte(nil), whole...)
	damaged[len(damaged)-2] ^= 0x40 // inside the final record's CRC
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := InspectOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.NextRound != 2 { // the final (empty) round record is dropped
		t.Errorf("next round = %d, want 2", st.NextRound)
	}
	if st.Partial == nil || len(st.Partial.Rounds) != 1 {
		t.Errorf("partial = %+v", st.Partial)
	}
}

// TestAppendAfterRecovery checks the log stays consistent when writing
// continues after a torn-tail truncation.
func TestAppendAfterRecovery(t *testing.T) {
	dir := writeSampleLog(t)
	path := filepath.Join(dir, "wal.1")
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, whole[:len(whole)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	log, st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.NextRound != 2 {
		t.Fatalf("recovered rounds = %d, want 2", st.NextRound)
	}
	if err := log.AppendRound([]transport.Message{msg(2, "resumed")}); err != nil {
		t.Fatal(err)
	}
	if err := log.AppendEnd(big.NewInt(9)); err != nil {
		t.Fatal(err)
	}
	log.Close()
	st, err = InspectOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Seq != 2 || st.Partial != nil || st.NextRound != 3 {
		t.Errorf("state after continued append = %+v", st)
	}
}

// TestCorruptMiddle damages a record that is not the tail: replay treats
// the first bad frame as the tail and drops everything after it — the
// standard sequential-WAL recovery rule — without erroring. Damage to the
// head of generation 0's slot, "wal", drops the whole log once nothing
// newer is left in "wal.1".
func TestCorruptMiddle(t *testing.T) {
	dir := writeSampleLog(t)
	if err := os.WriteFile(filepath.Join(dir, "wal.1"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "wal")
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	damaged := append([]byte(nil), whole...)
	damaged[2] ^= 0xff // inside the meta record's body
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := InspectOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.HasMeta || st.Seq != 0 {
		t.Errorf("state after head damage = %+v", st)
	}
}

func TestBigIntSigns(t *testing.T) {
	dir := t.TempDir()
	log, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.AppendInstance(&Instance{Seq: 0, Kind: KindAgree, Protocol: "p", Input: big.NewInt(-12345)}); err != nil {
		t.Fatal(err)
	}
	if err := log.AppendEnd(big.NewInt(0)); err != nil {
		t.Fatal(err)
	}
	log.Close()

	// Re-open and read the completed instance's tail by appending a fresh
	// partial that references seq 1.
	log, st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Seq != 1 {
		t.Fatalf("seq = %d", st.Seq)
	}
	if err := log.AppendInstance(&Instance{Seq: 1, Kind: KindAgree, Protocol: "p", Input: big.NewInt(7)}); err != nil {
		t.Fatal(err)
	}
	log.Close()
	st, err = InspectOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Partial == nil || st.Partial.Input.Int64() != 7 {
		t.Errorf("partial = %+v", st.Partial)
	}
}

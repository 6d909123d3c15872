package checkpoint

import (
	"bytes"
	"math/big"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"convexagreement/internal/errfs"
	"convexagreement/internal/transport"
)

// validWAL builds a well-formed log (meta, one finished instance, one
// partial instance with a recorded round) and returns its two slot files
// — generation 0 with the finished instance, generation 1 with the
// partial one — so the fuzzer starts from realistic record framing rather
// than pure noise.
func validWAL(t testing.TB) (wal, wal1 []byte) {
	t.Helper()
	dir := t.TempDir()
	log, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.AppendMeta(4, 1); err != nil {
		t.Fatal(err)
	}
	if err := log.AppendInstance(&Instance{Input: big.NewInt(7)}); err != nil {
		t.Fatal(err)
	}
	if err := log.AppendRound([]transport.Message{{From: 2, Payload: []byte("abc")}}); err != nil {
		t.Fatal(err)
	}
	if err := log.AppendEnd(big.NewInt(9)); err != nil {
		t.Fatal(err)
	}
	if err := log.AppendInstance(&Instance{Input: big.NewInt(5)}); err != nil {
		t.Fatal(err)
	}
	if err := log.AppendRound([]transport.Message{{From: 0, Payload: []byte("x")}}); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*[]byte{&wal, &wal1} {
		name := "wal"
		if p == &wal1 {
			name += slotSuffix
		}
		if *p, err = os.ReadFile(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	return wal, wal1
}

// FuzzInspectState feeds arbitrary bytes, one input per slot file, to the
// WAL replay path. Whatever the bytes, Inspect must return cleanly — never
// panic — and because Open truncates any torn tail in place, a second
// Inspect of the same directory must agree with the first.
func FuzzInspectState(f *testing.F) {
	raw, raw1 := validWAL(f)
	f.Add(raw, raw1)
	f.Add(raw, raw1[:len(raw1)-3])    // torn tail
	f.Add(raw, raw1[:len(raw1)/2])    // torn head: generation 0 is live
	f.Add(raw1, raw)                  // each slot holds the other's generation
	f.Add(raw[:len(raw)-3], []byte{}) // a log that never switched
	f.Add(raw1, raw1[:len(raw1)-1])
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, raw1)
	f.Add(bytes.Repeat([]byte{0x00}, 64), bytes.Repeat([]byte{0x01}, 64))

	f.Fuzz(func(t *testing.T, data, data1 []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "wal"+slotSuffix), data1, 0o644); err != nil {
			t.Fatal(err)
		}
		st1, err1 := InspectOptions(dir, Options{})
		st2, err2 := InspectOptions(dir, Options{})
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("inspect not idempotent: first err=%v, second err=%v", err1, err2)
		}
		if err1 != nil {
			return
		}
		if !reflect.DeepEqual(st1, st2) {
			t.Fatalf("inspect not idempotent:\nfirst  %+v\nsecond %+v", st1, st2)
		}
	})
}

// FuzzScrub feeds arbitrary byte pairs to the mirrored scrub-and-repair
// path. Whatever the two copies hold, scrub must return cleanly (never
// panic), repair must converge the copies' intact prefixes to the voting
// winner's, a second pass must be a no-op, and the repaired directory must
// open without error.
func FuzzScrub(f *testing.F) {
	raw, _ := validWAL(f)
	f.Add(raw, raw)
	f.Add(raw, raw[:len(raw)-3])             // one torn copy
	f.Add(raw[:len(raw)/2], raw)             // one lagging copy
	f.Add([]byte{}, raw)                     // one empty copy
	f.Add([]byte{0xff, 0xff}, []byte{0x00})  // both garbage
	f.Add(raw, bytes.Repeat([]byte{1}, 128)) // one copy pure noise

	f.Fuzz(func(t *testing.T, a, b []byte) {
		m := errfs.NewMem(errfs.Faults{})
		m.WriteFileRaw("state/wal", a)
		m.WriteFileRaw("state/wal2", b)
		opts := Options{FS: m, Mirror: true}
		rep, err := ScrubOptions("state", opts)
		if err != nil {
			t.Fatalf("scrub: %v", err)
		}
		rep2, err := ScrubOptions("state", opts)
		if err != nil {
			t.Fatalf("second scrub: %v", err)
		}
		if rep2.Repaired {
			t.Fatalf("scrub not idempotent: second pass repaired\nfirst  %s\nsecond %s", rep, rep2)
		}
		if rep2.Records != rep.Records {
			t.Fatalf("record count unstable: %d then %d", rep.Records, rep2.Records)
		}
		// Both copies now carry the same intact record prefix.
		ra, _ := m.ReadFileRaw("state/wal")
		rb, _ := m.ReadFileRaw("state/wal2")
		na, ia, _ := walkFrames(ra, 0)
		nb, ib, _ := walkFrames(rb, 0)
		if na != nb || ia != ib || !bytes.Equal(ra[:ia], rb[:ib]) {
			t.Fatalf("intact prefixes diverge after repair: %d/%d records, %d/%d bytes", na, nb, ia, ib)
		}
		if na != rep.Records {
			t.Fatalf("copies hold %d records, report says %d", na, rep.Records)
		}
		// And the repaired directory inspects deterministically. (Scrub is
		// frame-level by design: a CRC-intact record sequence can still be
		// semantically invalid, so inspect may return a typed error — but
		// it must return the SAME outcome every time, never panic.)
		st1, err1 := InspectOptions("state", opts)
		st2, err2 := InspectOptions("state", opts)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("inspect after repair not idempotent: %v then %v", err1, err2)
		}
		if err1 == nil && digestState(st1) != digestState(st2) {
			t.Fatal("inspect after repair: states differ between passes")
		}
	})
}

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
	if err := log.AppendInstance(&Instance{Seq: 1, Input: big.NewInt(5)}); err != nil {
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

// FuzzScrub feeds arbitrary bytes, one input per slot file of each copy,
// to the mirrored scrub-and-repair path. Whatever the files hold, scrub
// must return cleanly (never panic) and elect what Open elects on the same
// bytes, repair must converge the copies' live slots to the voting
// winner's intact prefix, a second pass must be a no-op, and the repaired
// directory must open without error. Where no copy's records replay,
// there is no winner: Open fails and scrub writes nothing.
func FuzzScrub(f *testing.F) {
	raw, raw1 := validWAL(f)
	none := []byte{}
	f.Add(raw, none, raw, none)
	f.Add(raw, none, raw[:len(raw)-3], none)             // one torn copy
	f.Add(raw[:len(raw)/2], none, raw, none)             // one lagging copy
	f.Add(none, none, raw, none)                         // one empty copy
	f.Add([]byte{0xff, 0xff}, none, []byte{0x00}, none)  // both garbage
	f.Add(raw, none, bytes.Repeat([]byte{1}, 128), none) // one copy pure noise
	f.Add(raw, raw1, raw, raw1)
	f.Add(raw, raw1, raw, raw1[:len(raw1)-3]) // one copy's live slot torn
	f.Add(raw, raw1[:len(raw1)/2], raw, raw1) // one copy a generation behind
	f.Add(raw, raw1, raw1, raw)               // one copy's slots swapped
	f.Add(none, none, raw, raw1)              // one copy empty
	ends := frameEnds(raw, 0)                 // meta, instance, round, end
	orphan := append(bytes.Clone(raw[:ends[1]]), raw[ends[2]:ends[3]]...)
	f.Add(orphan, none, raw, raw1)    // one copy's records do not replay
	f.Add(orphan, none, orphan, none) // no copy's do
	ends1 := frameEnds(raw1, 1)       // base, instance, round
	twice := append(bytes.Clone(raw1[:ends1[2]]), raw1[ends1[1]:ends1[2]]...)
	f.Add(raw, none, raw, twice) // the newer generation does not replay

	copies := CopyFiles(crashDir, Options{Mirror: true})
	scanCopy := func(m *errfs.Mem, k int) slotScan {
		var raws [2][]byte
		for i, name := range copies[k] {
			raws[i], _ = m.ReadFileRaw(name)
		}
		return scanSlots(raws)
	}
	f.Fuzz(func(t *testing.T, a, a1, b, b1 []byte) {
		files := map[string][]byte{}
		for i, data := range [][]byte{a, a1, b, b1} {
			files[copies[i/2][i%2]] = data
		}
		m := memWith(files)
		opts := Options{FS: m, Mirror: true}
		rep, err := ScrubOptions(crashDir, opts)
		if err != nil {
			t.Fatalf("scrub: %v", err)
		}
		rep2, err := ScrubOptions(crashDir, opts)
		if err != nil {
			t.Fatalf("second scrub: %v", err)
		}
		if rep2.Repaired {
			t.Fatalf("scrub not idempotent: second pass repaired\nfirst  %s\nsecond %s", rep, rep2)
		}
		if rep2.Records != rep.Records {
			t.Fatalf("record count unstable: %d then %d", rep.Records, rep2.Records)
		}

		om := memWith(files)
		log, _, err := OpenOptions(crashDir, Options{FS: om, Mirror: true})
		if err != nil {
			// No copy to elect: scrub reports every copy's failure and
			// leaves the files as they were.
			for _, c := range rep.Copies {
				if c.Err == "" || c.Repaired {
					t.Fatalf("open failed (%v) where scrub elected a copy: %s", err, rep)
				}
			}
			for name, data := range files {
				if got, _ := m.ReadFileRaw(name); !bytes.Equal(got, data) {
					t.Fatalf("scrub with no copy to elect rewrote %s", name)
				}
			}
			return
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}

		// Both copies' live slots now carry the same intact record prefix.
		sa, sb := scanCopy(m, 0), scanCopy(m, 1)
		if sa.live != sb.live || sa.gen != sb.gen || len(sa.bodies) != len(sb.bodies) || sa.intact != sb.intact ||
			!bytes.Equal(sa.raw[:sa.intact], sb.raw[:sb.intact]) {
			t.Fatalf("intact prefixes diverge after repair: slots %d/%d, %d/%d records, %d/%d bytes",
				sa.live, sb.live, len(sa.bodies), len(sb.bodies), sa.intact, sb.intact)
		}
		if len(sa.bodies) != rep.Records {
			t.Fatalf("copies hold %d records, report says %d", len(sa.bodies), rep.Records)
		}

		// Open on the same bytes elected the same winner: every copy it
		// kept holds what scrub left in both — the same live slot,
		// generation, record count and intact bytes.
		kept := 0
		for k, c := range log.copies {
			if c.dead {
				continue
			}
			kept++
			so := scanCopy(om, k)
			if so.live != sa.live || so.gen != sa.gen || so.gen != log.gen || len(so.bodies) != rep.Records ||
				!bytes.Equal(so.raw[:so.intact], sa.raw[:sa.intact]) {
				t.Fatalf("open elected slot %d generation %d with %d records in copy %d; scrub slot %d generation %d with %d",
					so.live, so.gen, len(so.bodies), k, sa.live, sa.gen, rep.Records)
			}
		}
		if kept == 0 {
			t.Fatal("open succeeded with every copy demoted")
		}

		// And the repaired directory opens, to the same state every time.
		st1, err1 := InspectOptions(crashDir, opts)
		st2, err2 := InspectOptions(crashDir, opts)
		if err1 != nil || err2 != nil {
			t.Fatalf("inspect after repair: %v then %v", err1, err2)
		}
		if digestState(st1) != digestState(st2) {
			t.Fatal("inspect after repair: states differ between passes")
		}
	})
}

package checkpoint

// The mirrored-WAL battery: single-copy damage of every kind — byte
// corruption, bit rot on the read path, truncation, a whole missing copy,
// mid-run write failure — must cost nothing: voting recovers the full
// state from the survivor and repair restores redundancy.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"convexagreement/internal/errfs"
	"convexagreement/internal/transport"
	"convexagreement/internal/wire"
)

// buildMirrored runs the full workload in mirrored mode and returns its
// files, the expected full-state digest, and the slot index of the live
// generation (both copies hold it in the same slot).
func buildMirrored(t *testing.T) (map[string][]byte, uint64, int) {
	t.Helper()
	m := errfs.NewMem(errfs.Faults{})
	if _, err := runWorkload(m, true, workloadAppends); err != nil {
		t.Fatal(err)
	}
	st, err := InspectOptions(crashDir, Options{FS: m, Mirror: true})
	if err != nil {
		t.Fatal(err)
	}
	files := slotFiles(m, true)
	return files, digestState(st), liveSlot([2][]byte{files[crashDir+"/wal"], files[crashDir+"/wal.1"]})
}

// mirrorCopies is the mirrored log's two copies, each its two slot paths.
var mirrorCopies = CopyFiles(crashDir, Options{Mirror: true})

// corrupt flips one byte of name at off.
func corrupt(t *testing.T, m *errfs.Mem, name string, off int) {
	t.Helper()
	raw, ok := m.ReadFileRaw(name)
	if !ok {
		t.Fatalf("%s missing", name)
	}
	raw[off] ^= 0x40
	m.WriteFileRaw(name, raw)
}

// TestMirrorSingleCopyCorruption sweeps a one-byte corruption over EVERY
// byte offset of one copy — both its slots — and asserts the mirrored open
// always recovers the full state from the other — the acceptance bar for
// "any single-copy bit-rot loses nothing". Both copies are tried as the
// victim.
func TestMirrorSingleCopyCorruption(t *testing.T) {
	clean, want, live := buildMirrored(t)
	for _, victim := range mirrorCopies {
		for _, name := range victim {
			for off := 0; off < len(clean[name]); off++ {
				m := memWith(clean)
				corrupt(t, m, name, off)
				st, err := InspectOptions(crashDir, Options{FS: m, Mirror: true})
				if err != nil {
					t.Fatalf("victim %s off %d: %v", name, off, err)
				}
				if digestState(st) != want {
					t.Fatalf("victim %s off %d: recovered state differs from full log", name, off)
				}
				// The open repaired the victim: both copies' live slots are
				// now intact and byte-identical.
				a, _ := m.ReadFileRaw(mirrorCopies[0][live])
				b, _ := m.ReadFileRaw(mirrorCopies[1][live])
				if !bytes.Equal(a, b) || !bytes.Equal(a, clean[mirrorCopies[0][live]]) {
					t.Fatalf("victim %s off %d: copies not repaired to the intact image", name, off)
				}
			}
		}
	}
}

// TestMirrorReadRot drives the rot through the read path proper
// (ReadRotProb on one file) rather than the raw backdoor: recovery must
// come out of the surviving copy.
func TestMirrorReadRot(t *testing.T) {
	clean, want, live := buildMirrored(t)
	m := errfs.NewMem(errfs.Faults{Seed: 7, ReadRotProb: 1, RotFile: filepath.Base(mirrorCopies[0][live])})
	for name, raw := range clean {
		m.WriteFileRaw(name, raw)
	}
	st, err := InspectOptions(crashDir, Options{FS: m, Mirror: true})
	if err != nil {
		t.Fatalf("open with rotted wal: %v", err)
	}
	if digestState(st) != want {
		t.Fatal("recovered state differs from full log")
	}
	if m.Transcript() == errfs.NewMem(errfs.Faults{}).Transcript() {
		t.Fatal("rot never fired: the battery tested nothing")
	}
}

// TestMirrorMissingCopy deletes one copy — both slot files — outright;
// the open must recover fully and recreate its live slot.
func TestMirrorMissingCopy(t *testing.T) {
	clean, want, live := buildMirrored(t)
	for _, victim := range mirrorCopies {
		m := memWith(clean)
		for _, name := range victim {
			if err := m.Remove(name); err != nil {
				t.Fatal(err)
			}
		}
		st, err := InspectOptions(crashDir, Options{FS: m, Mirror: true})
		if err != nil {
			t.Fatalf("victim %s: %v", victim[0], err)
		}
		if digestState(st) != want {
			t.Fatalf("victim %s: recovered state differs", victim[0])
		}
		raw, ok := m.ReadFileRaw(victim[live])
		if !ok || !bytes.Equal(raw, clean[mirrorCopies[0][live]]) {
			t.Fatalf("victim %s: not recreated by repair", victim[live])
		}
	}
}

// TestMirrorBothDamagedDifferentDepths damages BOTH copies at different
// record depths: voting must pick the deeper prefix, and the state comes
// back as that prefix — graceful partial recovery, not failure. Damage to
// a live slot's head takes the copy back a generation, which loses the
// vote to any copy that still holds the newer one.
func TestMirrorBothDamagedDifferentDepths(t *testing.T) {
	clean, _, live := buildMirrored(t)
	exp := expectedDigests(t)
	// The live slot holds the last generation: base and instance (the
	// 12th append), then a round (the 13th).
	bounds := frameEnds(clean[mirrorCopies[0][live]], live)
	if len(bounds) != 4 {
		t.Fatalf("live slot holds %d records, want 3", len(bounds)-1)
	}
	for _, c := range []struct {
		name           string
		depth1, depth2 int // records each copy's live slot keeps
		appends        int
	}{
		{"same generation", 1, 2, 12},       // base alone restates 11 appends
		{"newer generation wins", 2, 0, 12}, // over the older one's 4 records
	} {
		m := memWith(clean)
		for i, depth := range []int{c.depth1, c.depth2} {
			corrupt(t, m, mirrorCopies[i][live], int(bounds[depth])+1)
		}
		st, err := InspectOptions(crashDir, Options{FS: m, Mirror: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := digestState(st); got != exp[c.appends] {
			t.Fatalf("%s: vote recovered digest %#x, want the %d-append prefix %#x", c.name, got, c.appends, exp[c.appends])
		}
	}
}

// failWriteFS wraps a Mem and fails every write (and sync) touching one
// base name, for targeting a single mirror copy mid-run.
type failWriteFS struct {
	errfs.FS
	victim string
	armed  bool
}

type failWriteFile struct {
	errfs.File
	fs   *failWriteFS
	name string
}

func (f *failWriteFS) OpenFile(name string, flag int, perm os.FileMode) (errfs.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &failWriteFile{File: file, fs: f, name: name}, nil
}

func (f *failWriteFile) Write(p []byte) (int, error) {
	if f.fs.armed && strings.HasSuffix(f.name, f.fs.victim) {
		return 0, errors.New("injected: copy write failure")
	}
	return f.File.Write(p)
}

// TestMirrorAppendDegradesToSurvivor fails one copy's writes mid-run: the
// log must demote it, report Degraded, keep appending to the survivor,
// and a later clean open must see every acked append.
func TestMirrorAppendDegradesToSurvivor(t *testing.T) {
	mem := errfs.NewMem(errfs.Faults{})
	fw := &failWriteFS{FS: mem, victim: "wal2"}
	log, _, err := OpenOptions(crashDir, Options{FS: fw, Mirror: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.AppendMeta(4, 1); err != nil {
		t.Fatal(err)
	}
	if log.Degraded() != nil {
		t.Fatal("degraded before any fault")
	}
	fw.armed = true
	if err := log.AppendInstance(&Instance{Input: nil}); err != nil {
		t.Fatalf("append with one live copy: %v", err)
	}
	if !errors.Is(log.Degraded(), ErrStorageDegraded) {
		t.Fatalf("Degraded() = %v, want ErrStorageDegraded", log.Degraded())
	}
	if err := log.AppendRound([]transport.Message{msg(1, "x")}); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	// Clean reopen on the raw Mem: wal has 3 records, wal2 has 1 → wal
	// wins the vote and repairs wal2.
	st, err := InspectOptions(crashDir, Options{FS: mem, Mirror: true})
	if err != nil {
		t.Fatal(err)
	}
	if !st.HasMeta || st.NextRound != 1 || st.Partial == nil {
		t.Fatalf("state after degradation: %+v", st)
	}
	a, _ := mem.ReadFileRaw(crashDir + "/wal")
	b, _ := mem.ReadFileRaw(crashDir + "/wal2")
	if !bytes.Equal(a, b) {
		t.Fatal("copies not converged after repair")
	}
}

// failReadFS wraps a Mem and fails every read of one slot file, by base
// name: a device error, not bytes that run out.
type failReadFS struct {
	errfs.FS
	victim string
}

type failReadFile struct{ errfs.File }

func (f *failReadFS) OpenFile(name string, flag int, perm os.FileMode) (errfs.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil || filepath.Base(name) != f.victim {
		return file, err
	}
	return failReadFile{file}, nil
}

func (failReadFile) Read([]byte) (int, error) { return 0, errors.New("injected: read failure") }

// TestReadErrorIsStorageLoss: a slot file that cannot be read is lost
// storage, never a torn tail, whichever slot it is. A single copy fails to
// open with ErrStorageLost and its files stay as they were; a mirrored log
// demotes the copy and recovers the whole state from the other.
func TestReadErrorIsStorageLoss(t *testing.T) {
	one := errfs.NewMem(errfs.Faults{})
	if _, err := runWorkload(one, false, workloadAppends); err != nil {
		t.Fatal(err)
	}
	single := slotFiles(one, false)
	clean, want, _ := buildMirrored(t)
	for _, victim := range []string{"wal", "wal" + slotSuffix} {
		m := memWith(single)
		_, err := InspectOptions(crashDir, Options{FS: &failReadFS{FS: m, victim: victim}})
		if !errors.Is(err, ErrStorageLost) {
			t.Fatalf("%s unreadable: single-copy open returned %v, want ErrStorageLost", victim, err)
		}
		for name, raw := range single {
			if got, _ := m.ReadFileRaw(name); !bytes.Equal(got, raw) {
				t.Fatalf("%s unreadable: the failed open rewrote %s", victim, name)
			}
		}

		log, st, err := OpenOptions(crashDir, Options{FS: &failReadFS{FS: memWith(clean), victim: victim}, Mirror: true})
		if err != nil {
			t.Fatalf("%s unreadable: mirrored open: %v", victim, err)
		}
		if digestState(st) != want {
			t.Fatalf("%s unreadable: mirrored open recovered a different state", victim)
		}
		if d := log.Degraded(); !errors.Is(d, ErrStorageDegraded) || !strings.Contains(d.Error(), ErrStorageLost.Error()) {
			t.Fatalf("%s unreadable: Degraded() = %v, want the copy demoted as lost storage", victim, d)
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAppendAllCopiesDeadIsDegradedError kills every copy: the append
// itself must fail with the typed ErrStorageDegraded, not succeed and not
// panic.
func TestAppendAllCopiesDeadIsDegradedError(t *testing.T) {
	mem := errfs.NewMem(errfs.Faults{})
	fw := &failWriteFS{FS: mem, victim: ""} // empty suffix: every file fails
	log, _, err := OpenOptions(crashDir, Options{FS: fw, Mirror: true})
	if err != nil {
		t.Fatal(err)
	}
	fw.armed = true
	err = log.AppendMeta(4, 1)
	if !errors.Is(err, ErrStorageDegraded) {
		t.Fatalf("append with all copies dead: %v, want ErrStorageDegraded", err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestScrubReportOnly verifies single-copy scrub reports damage without
// touching the file.
func TestScrubReportOnly(t *testing.T) {
	m := errfs.NewMem(errfs.Faults{})
	if _, err := runWorkload(m, false, workloadAppends); err != nil {
		t.Fatal(err)
	}
	files := slotFiles(m, false)
	name := CopyFiles(crashDir, Options{})[0][liveSlot([2][]byte{files[crashDir+"/wal"], files[crashDir+"/wal.1"]})]
	corrupt(t, m, name, len(files[name])/2)
	damaged, _ := m.ReadFileRaw(name)
	rep, err := ScrubOptions(crashDir, Options{FS: m})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Copies) != 1 || !rep.Copies[0].Damaged() {
		t.Fatalf("damage not reported: %s", rep)
	}
	if rep.Repaired {
		t.Fatal("single-copy scrub must not repair")
	}
	after, _ := m.ReadFileRaw(name)
	if !bytes.Equal(after, damaged) {
		t.Fatal("single-copy scrub mutated the file")
	}
	if rep.String() == "" {
		t.Fatal("empty report string")
	}
}

// TestScrubMirrorRepairIdempotent verifies the mirrored scrub repairs a
// damaged copy from the winner and that a second pass is a no-op.
func TestScrubMirrorRepairIdempotent(t *testing.T) {
	clean, want, live := buildMirrored(t)
	m := memWith(clean)
	corrupt(t, m, mirrorCopies[1][live], 3)

	rep, err := ScrubOptions(crashDir, Options{FS: m, Mirror: true})
	if err != nil {
		t.Fatal(err)
	}
	if records := len(frameEnds(clean[mirrorCopies[0][live]], live)) - 1; !rep.Repaired || rep.Records != records {
		t.Fatalf("first scrub: %s, want a repair and %d records", rep, records)
	}
	rep2, err := ScrubOptions(crashDir, Options{FS: m, Mirror: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Repaired {
		t.Fatalf("second scrub repaired again: %s", rep2)
	}
	st, err := InspectOptions(crashDir, Options{FS: m, Mirror: true})
	if err != nil {
		t.Fatal(err)
	}
	if digestState(st) != want {
		t.Fatal("state after scrub repair differs from full log")
	}
}

// TestAppendScratchIsNotRetained: the Log reuses one body, one frame and
// one natural's buffer for every record, which is legal only if no File
// keeps what Write was handed. Overwrite the buffers, to their full
// capacity, after every append — single copy and mirrored, where one frame
// is written twice — and the files must still hold byte for byte what an
// undisturbed log wrote.
func TestAppendScratchIsNotRetained(t *testing.T) {
	for _, mirror := range []bool{false, true} {
		files := func(scribble bool) [][]byte {
			m := errfs.NewMem(errfs.Faults{})
			log, _, err := OpenOptions(crashDir, Options{FS: m, Mirror: mirror})
			if err != nil {
				t.Fatal(err)
			}
			for i, step := range workloadSteps(log) {
				if err := step(); err != nil {
					t.Fatalf("mirror=%v append %d: %v", mirror, i, err)
				}
				if scribble {
					bufs := [][]byte{log.num[:cap(log.num)]}
					for _, w := range []*wire.Writer{&log.body, &log.frame} {
						buf := w.Finish()
						bufs = append(bufs, buf[:cap(buf)])
					}
					for _, buf := range bufs {
						for k := range buf {
							buf[k] = 0xDB
						}
					}
				}
			}
			if err := log.Close(); err != nil {
				t.Fatal(err)
			}
			var out [][]byte
			for _, slots := range CopyFiles(crashDir, Options{Mirror: mirror}) {
				for _, name := range slots {
					raw, ok := m.ReadFileRaw(name)
					if !ok || len(raw) == 0 {
						t.Fatalf("mirror=%v: %s missing or empty", mirror, name)
					}
					out = append(out, raw)
				}
			}
			return out
		}
		want, got := files(false), files(true)
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("mirror=%v copy %d: the file changed when the append scratch was overwritten", mirror, i)
			}
		}
	}
}

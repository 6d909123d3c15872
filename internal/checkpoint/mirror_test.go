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

// buildMirrored runs the full workload in mirrored mode and returns the
// filesystem plus the expected full-state digest.
func buildMirrored(t *testing.T) (*errfs.Mem, uint64) {
	t.Helper()
	m := errfs.NewMem(errfs.Faults{})
	if _, err := runWorkload(m, true, workloadAppends); err != nil {
		t.Fatal(err)
	}
	st, err := InspectOptions(crashDir, Options{FS: m, Mirror: true})
	if err != nil {
		t.Fatal(err)
	}
	return m, digestState(st)
}

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
// byte offset of one copy and asserts the mirrored open always recovers
// the full state from the other — the acceptance bar for "any single-copy
// bit-rot loses nothing". Both copies are tried as the victim.
func TestMirrorSingleCopyCorruption(t *testing.T) {
	clean, want := buildMirrored(t)
	walRaw, _ := clean.ReadFileRaw(crashDir + "/wal")
	for _, victim := range []string{"wal", "wal2"} {
		for off := 0; off < len(walRaw); off++ {
			m := errfs.NewMem(errfs.Faults{})
			m.WriteFileRaw(crashDir+"/wal", walRaw)
			m.WriteFileRaw(crashDir+"/wal2", walRaw)
			corrupt(t, m, crashDir+"/"+victim, off)
			st, err := InspectOptions(crashDir, Options{FS: m, Mirror: true})
			if err != nil {
				t.Fatalf("victim %s off %d: %v", victim, off, err)
			}
			if digestState(st) != want {
				t.Fatalf("victim %s off %d: recovered state differs from full log", victim, off)
			}
			// The open repaired the victim: both copies are now intact and
			// byte-identical.
			a, _ := m.ReadFileRaw(crashDir + "/wal")
			b, _ := m.ReadFileRaw(crashDir + "/wal2")
			if !bytes.Equal(a, b) || !bytes.Equal(a, walRaw) {
				t.Fatalf("victim %s off %d: copies not repaired to the intact image", victim, off)
			}
		}
	}
}

// TestMirrorReadRot drives the rot through the read path proper
// (ReadRotProb on one file) rather than the raw backdoor: recovery must
// come out of the surviving copy.
func TestMirrorReadRot(t *testing.T) {
	clean, want := buildMirrored(t)
	walRaw, _ := clean.ReadFileRaw(crashDir + "/wal")
	m := errfs.NewMem(errfs.Faults{Seed: 7, ReadRotProb: 1, RotFile: "wal"})
	m.WriteFileRaw(crashDir+"/wal", walRaw)
	m.WriteFileRaw(crashDir+"/wal2", walRaw)
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

// TestMirrorMissingCopy deletes one copy outright; the open must recover
// fully and recreate it.
func TestMirrorMissingCopy(t *testing.T) {
	clean, want := buildMirrored(t)
	walRaw, _ := clean.ReadFileRaw(crashDir + "/wal")
	for _, victim := range []string{"wal", "wal2"} {
		m := errfs.NewMem(errfs.Faults{})
		m.WriteFileRaw(crashDir+"/wal", walRaw)
		m.WriteFileRaw(crashDir+"/wal2", walRaw)
		if err := m.Remove(crashDir + "/" + victim); err != nil {
			t.Fatal(err)
		}
		st, err := InspectOptions(crashDir, Options{FS: m, Mirror: true})
		if err != nil {
			t.Fatalf("victim %s: %v", victim, err)
		}
		if digestState(st) != want {
			t.Fatalf("victim %s: recovered state differs", victim)
		}
		raw, ok := m.ReadFileRaw(crashDir + "/" + victim)
		if !ok || !bytes.Equal(raw, walRaw) {
			t.Fatalf("victim %s: not recreated by repair", victim)
		}
	}
}

// TestMirrorBothDamagedDifferentDepths damages BOTH copies at different
// record depths: voting must pick the deeper prefix, and the state comes
// back as that prefix — graceful partial recovery, not failure.
func TestMirrorBothDamagedDifferentDepths(t *testing.T) {
	clean, _ := buildMirrored(t)
	walRaw, _ := clean.ReadFileRaw(crashDir + "/wal")
	exp := expectedDigests(t)

	// Record boundaries of the intact log.
	bounds := []int64{0}
	for off := int64(0); ; {
		n, ok := firstFrameLen(walRaw[off:])
		if !ok {
			break
		}
		off += n
		bounds = append(bounds, off)
	}
	// wal intact through 2 records, wal2 through 5.
	m := errfs.NewMem(errfs.Faults{})
	m.WriteFileRaw(crashDir+"/wal", walRaw)
	m.WriteFileRaw(crashDir+"/wal2", walRaw)
	corrupt(t, m, crashDir+"/wal", int(bounds[2])+1)
	corrupt(t, m, crashDir+"/wal2", int(bounds[5])+1)
	st, err := InspectOptions(crashDir, Options{FS: m, Mirror: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := digestState(st); got != exp[5] {
		t.Fatalf("vote recovered digest %#x, want 5-record prefix %#x", got, exp[5])
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
	raw, _ := m.ReadFileRaw(crashDir + "/wal")
	corrupt(t, m, crashDir+"/wal", len(raw)/2)
	damaged, _ := m.ReadFileRaw(crashDir + "/wal")
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
	after, _ := m.ReadFileRaw(crashDir + "/wal")
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
	clean, want := buildMirrored(t)
	walRaw, _ := clean.ReadFileRaw(crashDir + "/wal")
	m := errfs.NewMem(errfs.Faults{})
	m.WriteFileRaw(crashDir+"/wal", walRaw)
	m.WriteFileRaw(crashDir+"/wal2", walRaw)
	corrupt(t, m, crashDir+"/wal2", 3)

	rep, err := ScrubOptions(crashDir, Options{FS: m, Mirror: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Repaired || rep.Records != workloadAppends {
		t.Fatalf("first scrub: %s", rep)
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

// TestAppendScratchIsNotRetained: the Log reuses one body and one frame
// buffer for every record, which is legal only if no File keeps what Write
// was handed. Overwrite both buffers, to their full capacity, after every
// append — single copy and mirrored, where one frame is written twice — and
// the files must still hold byte for byte what an undisturbed log wrote.
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
					for _, w := range []*wire.Writer{&log.body, &log.frame} {
						buf := w.Finish()
						buf = buf[:cap(buf)]
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
			for _, name := range (Options{Mirror: mirror}).copyNames() {
				raw, ok := m.ReadFileRaw(filepath.Join(crashDir, name))
				if !ok || len(raw) == 0 {
					t.Fatalf("mirror=%v: %s missing or empty", mirror, name)
				}
				out = append(out, raw)
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

package checkpoint

// The crash-point explorer: enumerate EVERY mutating storage operation a
// checkpointed append sequence performs, simulate a power crash at each
// one, materialize every disk image that crash could leave behind (every
// torn-write byte offset), and assert that recovery lands on a
// prefix-consistent state — never a silently divergent one. The expected
// states are the full set of per-append snapshots of the same workload run
// without faults, compared by digest; with honest fsyncs the recovered
// prefix must additionally include every append that was acked durable.

import (
	"bytes"
	"fmt"
	"maps"
	"math/big"
	"os"
	"testing"

	"convexagreement/internal/errfs"
	"convexagreement/internal/transport"
)

const crashDir = "state"

// workloadSteps is the canonical append sequence the explorer drives:
// meta, three completed instances (Agree with two rounds, Approx and Agree
// with one) and a partial Approx instance — every record kind, three slot
// switches (generations 1 to 3, so each slot is emptied and reused), ending
// mid-instance.
func workloadSteps(log *Log) []func() error {
	return []func() error{
		func() error { return log.AppendMeta(4, 1) },
		func() error {
			return log.AppendInstance(&Instance{Seq: 0, Kind: KindAgree, Protocol: "midpoint", Width: 8, Input: big.NewInt(17)})
		},
		func() error {
			return log.AppendRound([]transport.Message{msg(1, "r0-from1"), msg(2, "r0-from2")})
		},
		func() error { return log.AppendRound([]transport.Message{msg(3, "r1-from3")}) },
		func() error { return log.AppendEnd(big.NewInt(21)) },
		func() error {
			return log.AppendInstance(&Instance{Seq: 1, Kind: KindApprox, Input: big.NewInt(5), Diam: big.NewInt(100), Eps: big.NewInt(1)})
		},
		func() error { return log.AppendRound([]transport.Message{msg(0, "approx-r0")}) },
		func() error { return log.AppendEnd(big.NewInt(6)) },
		func() error {
			return log.AppendInstance(&Instance{Seq: 2, Kind: KindAgree, Protocol: "optimal", Width: 64, Input: big.NewInt(-3)})
		},
		func() error { return log.AppendRound([]transport.Message{msg(2, "r3-from2"), msg(3, "")}) },
		func() error { return log.AppendEnd(big.NewInt(-2)) },
		func() error {
			return log.AppendInstance(&Instance{Seq: 3, Kind: KindApprox, Input: big.NewInt(9), Diam: big.NewInt(50), Eps: big.NewInt(2)})
		},
		func() error { return log.AppendRound([]transport.Message{msg(1, "approx-r4")}) },
	}
}

// runWorkload opens the log on fsys and performs the first upTo appends,
// returning how many were acked durable. The first error stops the run
// (on a crashed filesystem everything after the crash fails anyway).
func runWorkload(fsys errfs.FS, mirror bool, upTo int) (int, error) {
	log, _, err := OpenOptions(crashDir, Options{FS: fsys, Mirror: mirror})
	if err != nil {
		return 0, err
	}
	done := 0
	for i, step := range workloadSteps(log) {
		if i >= upTo {
			break
		}
		if err := step(); err != nil {
			_ = log.Close() // already failing; the append error is the story
			return done, err
		}
		done++
	}
	return done, log.Close()
}

const workloadAppends = 13

// slotFiles reads every slot file of the log in m, keyed by path; absent
// files are left out.
func slotFiles(m *errfs.Mem, mirror bool) map[string][]byte {
	files := map[string][]byte{}
	for _, slots := range CopyFiles(crashDir, Options{Mirror: mirror}) {
		for _, name := range slots {
			if raw, ok := m.ReadFileRaw(name); ok {
				files[name] = raw
			}
		}
	}
	return files
}

// memWith is a fault-free filesystem holding files.
func memWith(files map[string][]byte) *errfs.Mem {
	m := errfs.NewMem(errfs.Faults{})
	for name, raw := range files {
		m.WriteFileRaw(name, raw)
	}
	return m
}

// liveSlot returns which of a copy's two slot files Open replays: the one
// whose intact head names the newer generation, 0 when neither has one.
func liveSlot(slots [2][]byte) int {
	live, best := 0, uint64(0)
	for i, raw := range slots {
		if n, _, gen := walkFrames(raw, i); n > 0 && gen >= best {
			live, best = i, gen
		}
	}
	return live
}

// frameEnds lists the offsets of slot file buf's intact record
// boundaries, 0 first.
func frameEnds(buf []byte, slot int) []int64 {
	ends := []int64{0}
	sc := slotScan{r: &offsetReader{f: bytes.NewReader(buf)}, slot: slot}
	for {
		if _, err := sc.next(); err != nil {
			return ends
		}
		ends = append(ends, sc.end)
	}
}

// expectedDigests returns the digest of the recovered state after each
// workload prefix: exp[j] is the state a log holding exactly the first j
// appends recovers to. This is the complete set of prefix-consistent
// outcomes; recovering to anything else is silent divergence.
func expectedDigests(t *testing.T) []uint64 {
	t.Helper()
	exp := make([]uint64, workloadAppends+1)
	for j := 0; j <= workloadAppends; j++ {
		m := errfs.NewMem(errfs.Faults{})
		if _, err := runWorkload(m, false, j); err != nil {
			t.Fatalf("clean workload prefix %d: %v", j, err)
		}
		st, err := InspectOptions(crashDir, Options{FS: m})
		if err != nil {
			t.Fatalf("clean inspect prefix %d: %v", j, err)
		}
		exp[j] = digestState(st)
	}
	return exp
}

// digestState folds a recovered State into a comparison digest.
func digestState(st *State) uint64 {
	const prime = 1099511628211
	d := uint64(1469598103934665603)
	word := func(v uint64) {
		for i := 0; i < 8; i++ {
			d = (d ^ (v & 0xff)) * prime
			v >>= 8
		}
	}
	bytes := func(p []byte) {
		word(uint64(len(p)))
		for _, b := range p {
			d = (d ^ uint64(b)) * prime
		}
	}
	big := func(v *big.Int) {
		if v == nil {
			word(0)
			return
		}
		word(uint64(v.Sign() + 2))
		bytes(v.Bytes())
	}
	b2u := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	word(b2u(st.HasMeta))
	word(uint64(st.N))
	word(uint64(st.T))
	word(st.Seq)
	word(st.NextRound)
	if st.Partial == nil {
		word(0)
		return d
	}
	p := st.Partial
	word(1)
	word(p.Seq)
	word(uint64(p.Kind))
	bytes([]byte(p.Protocol))
	word(uint64(p.Width))
	big(p.Input)
	big(p.Diam)
	big(p.Eps)
	word(uint64(len(p.Rounds)))
	for _, round := range p.Rounds {
		word(uint64(len(round)))
		for _, m := range round {
			word(uint64(m.From))
			bytes(m.Payload)
		}
	}
	return d
}

// exploreCrashPoints runs the full enumeration: for every mutating op k
// in the workload, crash there, and for every torn byte offset recover
// the resulting image and check its digest against the allowed window
// [floor(done), done+1]. honestSync narrows the floor to the acked append
// count; with fsync lies the floor is 0 (acked durability can be lost)
// but prefix consistency must still hold. prep, when non-nil, pre-seeds
// each fresh filesystem (e.g. with an already-durable empty WAL).
// Returns (points, images, fold) for coverage reporting and dual-run
// determinism checks.
func exploreCrashPoints(t *testing.T, cfg errfs.Faults, mirror, honestSync bool, prep func(*errfs.Mem), exp []uint64) (int, int, uint64) {
	t.Helper()
	newFS := func() *errfs.Mem {
		m := errfs.NewMem(cfg)
		if prep != nil {
			prep(m)
		}
		return m
	}
	ref := newFS()
	if _, err := runWorkload(ref, mirror, workloadAppends); err != nil {
		t.Fatalf("reference workload: %v", err)
	}
	total := ref.Ops()
	if total == 0 {
		t.Fatal("reference workload performed no ops")
	}
	images := 0
	fold := uint64(1469598103934665603)
	for k := 1; k <= total; k++ {
		m := newFS()
		m.CrashOps(k)
		done, _ := runWorkload(m, mirror, workloadAppends)
		if !m.Crashed() {
			t.Fatalf("crash point k=%d never fired (total=%d)", k, total)
		}
		floor := done
		if !honestSync {
			floor = 0
		}
		for torn := 0; torn <= m.PendingBytes(); torn++ {
			img := m.CrashImage(torn)
			st, err := InspectOptions(crashDir, Options{FS: img, Mirror: mirror})
			if err != nil {
				t.Fatalf("k=%d torn=%d: recovery failed: %v", k, torn, err)
			}
			got := digestState(st)
			okJ := -1
			for j := floor; j <= done+1 && j < len(exp); j++ {
				if exp[j] == got {
					okJ = j
					break
				}
			}
			if okJ < 0 {
				t.Fatalf("k=%d torn=%d done=%d: recovered state diverges from every workload prefix in [%d,%d] (digest %#x)",
					k, torn, done, floor, done+1, got)
			}
			images++
			fold = fold*1099511628211 ^ got ^ uint64(k)<<32 ^ uint64(torn)
		}
	}
	return total, images, fold
}

// TestCrashPointExplorer is the tentpole battery: exhaustive crash-point
// and torn-write enumeration over the single-copy WAL with honest fsyncs.
// Every acked append must survive; every recovery must be a workload
// prefix.
func TestCrashPointExplorer(t *testing.T) {
	exp := expectedDigests(t)
	points, images, fold1 := exploreCrashPoints(t, errfs.Faults{}, false, true, nil, exp)
	_, _, fold2 := exploreCrashPoints(t, errfs.Faults{}, false, true, nil, exp)
	if fold1 != fold2 {
		t.Fatalf("explorer not deterministic: fold %#x vs %#x", fold1, fold2)
	}
	t.Logf("explored %d crash points, %d crash images", points, images)
}

// TestCrashPointExplorerMirror runs the same enumeration over the dual
// WAL: crash points interleave the two copies' writes, and recovery must
// vote its way back to a workload prefix, repairing the lagging copy.
func TestCrashPointExplorerMirror(t *testing.T) {
	exp := expectedDigests(t)
	points, images, _ := exploreCrashPoints(t, errfs.Faults{}, true, true, nil, exp)
	t.Logf("explored %d crash points, %d crash images (mirrored)", points, images)
}

// TestCrashPointExplorerFsyncLies re-runs the enumeration on a filesystem
// whose every fsync lies (acks then loses on crash). Durability floors
// collapse — an acked append may be gone — but recovery must still land
// on SOME workload prefix: the WAL may lose the tail, never diverge. It
// runs single and mirrored.
func TestCrashPointExplorerFsyncLies(t *testing.T) {
	exp := expectedDigests(t)
	// Pre-seed an already-durable empty WAL (both slots) so the
	// directory-entry fsync (which under a blanket lie probability can
	// itself lie, making every crash image trivially empty) is out of the
	// picture: the battery then exercises what it is after — appends and
	// slot switches acked by a lying file fsync and lost by the crash. A
	// mixed rate makes some appends really durable, some lied-about, per
	// seed.
	prep := func(m *errfs.Mem) {
		m.WriteFileRaw(crashDir+"/wal", nil)
		m.WriteFileRaw(crashDir+"/wal.1", nil)
	}
	prepMirror := func(m *errfs.Mem) {
		prep(m)
		m.WriteFileRaw(crashDir+"/wal2", nil)
		m.WriteFileRaw(crashDir+"/wal2.1", nil)
	}
	for _, mirror := range []bool{false, true} {
		p := prep
		if mirror {
			p = prepMirror
		}
		for _, seed := range []int64{1, 42, 1469} {
			cfg := errfs.Faults{Seed: seed, SyncLieProb: 0.6}
			points, images, fold1 := exploreCrashPoints(t, cfg, mirror, false, p, exp)
			_, _, fold2 := exploreCrashPoints(t, cfg, mirror, false, p, exp)
			if fold1 != fold2 {
				t.Fatalf("mirror=%v seed %d: lie explorer not deterministic", mirror, seed)
			}
			t.Logf("mirror=%v seed %d: explored %d crash points, %d crash images under fsync lies", mirror, seed, points, images)
		}
	}
}

// TestCrashRecoveryResume closes the loop past Inspect: after a crash
// image is recovered, the log must ACCEPT new appends and a subsequent
// clean open must see old prefix + new records.
func TestCrashRecoveryResume(t *testing.T) {
	m := errfs.NewMem(errfs.Faults{})
	m.CrashOps(9) // mid-sequence: inside the third append's write/sync pair
	done, _ := runWorkload(m, false, workloadAppends)
	if !m.Crashed() {
		t.Fatal("crash never fired")
	}
	img := m.CrashImage(img3Torn)
	log, st, err := OpenOptions(crashDir, Options{FS: img})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	if !st.HasMeta {
		t.Fatalf("meta lost: done=%d state=%+v", done, st)
	}
	if err := log.AppendRound([]transport.Message{msg(9, "post-crash")}); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := InspectOptions(crashDir, Options{FS: img})
	if err != nil {
		t.Fatal(err)
	}
	if st2.NextRound != st.NextRound+1 {
		t.Fatalf("post-crash append not visible: %d -> %d", st.NextRound, st2.NextRound)
	}
}

const img3Torn = 3

// TestInspectMidAppendSweep is the record-boundary truncation sweep, one
// append at a time: the slot file the j-th append wrote is cut at its
// start, one byte in, at every record boundary the append wrote and one
// byte either side, and midway, with the other slot as it was, and Inspect
// must recover exactly the appends before the cut — j − 1, or j when the
// cut keeps the whole append — idempotently. A slot switch is cut twice:
// as the truncated slot, and as the slot whose truncation was lost, so the
// new records lie over the older generation's (the new head's intact
// base record alone restates the state before the append; what follows it
// of the older generation must never replay).
func TestInspectMidAppendSweep(t *testing.T) {
	exp := expectedDigests(t)
	snaps := make([]map[string][]byte, workloadAppends+1)
	for j := range snaps {
		m := errfs.NewMem(errfs.Faults{})
		if _, err := runWorkload(m, false, j); err != nil {
			t.Fatal(err)
		}
		snaps[j] = slotFiles(m, false)
	}
	switches, lostWholeHeads := 0, 0
	for j := 1; j <= workloadAppends; j++ {
		for slot, name := range CopyFiles(crashDir, Options{})[0] {
			before, after := snaps[j-1][name], snaps[j][name]
			if bytes.Equal(before, after) {
				continue
			}
			start := int64(len(before))
			_, _, genBefore := walkFrames(before, slot)
			_, _, genAfter := walkFrames(after, slot)
			switched := genAfter != genBefore
			if switched {
				start = 0
				switches++
			}
			cuts := []int64{start, start + 1, (start + int64(len(after))) / 2}
			for _, end := range frameEnds(after, slot) {
				if end > start {
					cuts = append(cuts, end-1, end, end+1)
				}
			}
			for _, cut := range cuts {
				if cut < start || cut > int64(len(after)) {
					continue
				}
				kept := j - 1
				if cut == int64(len(after)) {
					kept = j
				}
				images := [][]byte{after[:cut]}
				if switched && cut < int64(len(before)) {
					images = append(images, append(bytes.Clone(after[:cut]), before[cut:]...))
					if kept == j {
						lostWholeHeads++
					}
				}
				for k, img := range images {
					files := maps.Clone(snaps[j-1])
					files[name] = img
					m := memWith(files)
					label := fmt.Sprintf("append %d %s cut %d (lost truncation %v)", j, name, cut, k == 1)
					st, err := InspectOptions(crashDir, Options{FS: m})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if got := digestState(st); got != exp[kept] {
						t.Fatalf("%s: recovered digest %#x, want the digest of %d appends", label, got, kept)
					}
					st2, err := InspectOptions(crashDir, Options{FS: m})
					if err != nil || digestState(st2) != exp[kept] {
						t.Fatalf("%s: inspect not idempotent (err=%v)", label, err)
					}
				}
			}
		}
	}
	if switches != 3 || lostWholeHeads == 0 {
		t.Fatalf("the workload switched slots %d times (want 3), %d of them over a longer older generation (want some)", switches, lostWholeHeads)
	}
}

// TestSlotHoldsItsOwnGenerations: generation g lives in slot g mod 2, so a
// head naming the other slot's generation is not intact — appends after
// Open go to the slot the live generation names, and a slot that held
// another's records would take them into the wrong file. Two slot files
// swapped whole read as an empty log, and the log that opens on them
// starts over at generation 0.
func TestSlotHoldsItsOwnGenerations(t *testing.T) {
	m := errfs.NewMem(errfs.Faults{})
	if _, err := runWorkload(m, false, 7); err != nil { // generation 1 begun in wal.1
		t.Fatal(err)
	}
	files := slotFiles(m, false)
	wal, wal1 := crashDir+"/wal", crashDir+"/wal.1"
	swapped := memWith(map[string][]byte{wal: files[wal1], wal1: files[wal]})
	st, err := InspectOptions(crashDir, Options{FS: swapped})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := digestState(st), expectedDigests(t)[0]; got != want {
		t.Fatalf("swapped slots recover %+v, want the empty log", st)
	}
	if _, err := runWorkload(swapped, false, 7); err != nil {
		t.Fatal(err)
	}
	if st, err = InspectOptions(crashDir, Options{FS: swapped}); err != nil || digestState(st) != expectedDigests(t)[7] {
		t.Fatalf("the log written over swapped slots recovers %+v (%v), want the 7-append state", st, err)
	}
}

// legacyDigest is digestState of testdata/legacy.wal as the log recovered
// it before slots existed: the full workload in one file, generation 0.
const legacyDigest = 0x7dad180051400c53

// TestLegacyLogOpens opens a log written before slots existed — the full
// workload, four instances, in "wal" alone — to the same state as before,
// which is also the state the slotted log of the same appends recovers to.
// A log that holds one agreement is the same bytes in either format, and
// the legacy log's next instance switches to "wal.1" as generation 1.
func TestLegacyLogOpens(t *testing.T) {
	legacy, err := os.ReadFile("testdata/legacy.wal")
	if err != nil {
		t.Fatal(err)
	}
	exp := expectedDigests(t)
	m := memWith(map[string][]byte{crashDir + "/wal": legacy})
	st, err := InspectOptions(crashDir, Options{FS: m})
	if err != nil {
		t.Fatal(err)
	}
	if got := digestState(st); got != legacyDigest || got != exp[workloadAppends] {
		t.Fatalf("legacy log recovers digest %#x, want %#x", got, uint64(legacyDigest))
	}

	one := errfs.NewMem(errfs.Faults{})
	if _, err := runWorkload(one, false, 5); err != nil { // meta, one instance, two rounds, end
		t.Fatal(err)
	}
	files := slotFiles(one, false)
	if wal := files[crashDir+"/wal"]; !bytes.HasPrefix(legacy, wal) || len(wal) == 0 || len(files[crashDir+"/wal.1"]) != 0 {
		t.Fatalf("a one-agreement log is not the legacy format's first %d bytes (wal.1 holds %d)", len(wal), len(files[crashDir+"/wal.1"]))
	}

	log, _, err := OpenOptions(crashDir, Options{FS: m})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.AppendEnd(big.NewInt(4)); err != nil {
		t.Fatal(err)
	}
	if err := log.AppendInstance(&Instance{Seq: 4, Kind: KindAgree, Protocol: "optimal", Input: big.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = InspectOptions(crashDir, Options{FS: m})
	if err != nil {
		t.Fatal(err)
	}
	if st.Seq != 4 || st.NextRound != 5 || st.Partial == nil || st.Partial.Seq != 4 || len(st.Partial.Rounds) != 0 {
		t.Fatalf("after the legacy log's next instance: %+v", st)
	}
	if raw, _ := m.ReadFileRaw(crashDir + "/wal.1"); len(raw) == 0 {
		t.Fatal("the legacy log's next instance did not switch to wal.1")
	}
}

// instancesIn counts the instance records in slot file buf.
func instancesIn(buf []byte, slot int) int {
	sc := slotScan{r: &offsetReader{f: bytes.NewReader(buf)}, slot: slot}
	n := 0
	for {
		body, err := sc.next()
		if err != nil {
			return n
		}
		if body[0] == recInstance {
			n++
		}
	}
}

// TestWALStaysBounded runs 50 agreements through one log, mirrored: after
// each, every slot file holds at most one instance, and the files never
// outgrow two agreements' records.
func TestWALStaysBounded(t *testing.T) {
	m := errfs.NewMem(errfs.Faults{})
	log, _, err := OpenOptions(crashDir, Options{FS: m, Mirror: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.AppendMeta(7, 2); err != nil {
		t.Fatal(err)
	}
	msgs := benchRound()
	largest := 0
	for seq := uint64(0); seq < 50; seq++ {
		if err := log.AppendInstance(&Instance{Seq: seq, Kind: KindAgree, Protocol: "optimal", Width: 64, Input: big.NewInt(int64(seq))}); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 48; r++ {
			if err := log.AppendRound(msgs); err != nil {
				t.Fatal(err)
			}
		}
		if err := log.AppendEnd(big.NewInt(int64(seq))); err != nil {
			t.Fatal(err)
		}
		for _, slots := range CopyFiles(crashDir, Options{Mirror: true}) {
			for slot, name := range slots {
				raw, _ := m.ReadFileRaw(name)
				if n := instancesIn(raw, slot); n > 1 {
					t.Fatalf("after %d agreements %s holds %d instances", seq+1, name, n)
				}
				if seq == 0 {
					largest = max(largest, len(raw))
				} else if len(raw) > largest+64 {
					t.Fatalf("after %d agreements %s holds %d bytes, one agreement took %d", seq+1, name, len(raw), largest)
				}
			}
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := InspectOptions(crashDir, Options{FS: m, Mirror: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Seq != 50 || st.NextRound != 50*48 || st.Partial != nil || st.N != 7 || st.T != 2 {
		t.Fatalf("after 50 agreements: %+v", st)
	}
}

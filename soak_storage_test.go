package convexagreement_test

// TestSoakStorageFaults is the combined storage+network chaos soak: a
// seeded faultnet schedule (drops, delays, kills) running on top of
// seeded errfs storage faults (a dying disk on one party, bit rot under
// the killed party's mirrored WAL). The run must preserve agreement and
// hull validity, the killed party must resume to completion through
// rotted media, the dying-disk party must degrade and continue — and an
// identically-seeded second run must replay bit-identically at every
// layer: outputs, session transcript, faultnet transcripts, and errfs
// fault transcripts.

import (
	"bytes"
	"errors"
	"testing"

	"convexagreement/internal/checkpoint"
	"convexagreement/internal/errfs"
	"convexagreement/internal/experiments"
)

// TestSoakStorageFaults runs E20's scenario at n = 4 and soak length twice
// with one seed — party D (0) checkpoints onto a disk that dies permanently
// mid-run and must degrade and continue, party C (1) is network-disturbed
// within t = 1, party K (3) is killed kills times and resumes each time
// from a MIRRORED WAL whose "wal" copy suffers stable bit rot — and checks
// both runs independently, then layer-by-layer replay equality.
func TestSoakStorageFaults(t *testing.T) {
	instances, kills := 12, 3
	if testing.Short() {
		instances, kills = 4, 2
	}
	const n, D, K, seed = 4, 0, 3, 0xd15c2026
	c := experiments.StorageFaults(n, instances, kills, seed)

	check := func(res *experiments.Result) {
		t.Helper()
		d, k := &res.Parties[D], &res.Parties[K]
		if k.Err != nil {
			t.Fatalf("supervised party: %v (health %s)", k.Err, k.Health)
		}
		if k.Seq != uint64(instances) {
			t.Fatalf("K finished with Seq=%d, want %d", k.Seq, instances)
		}
		if want := kills + 1; k.Health.Attempts != want {
			t.Errorf("supervisor attempts = %d, want %d (health %s)", k.Health.Attempts, want, k.Health)
		}
		// D's disk must actually have died, the session must have degraded
		// (not poisoned: its outputs are asserted below), and the fault
		// must be on the transcript.
		if !errors.Is(d.Storage, checkpoint.ErrStorageDegraded) {
			t.Fatalf("party D StorageErr = %v, want ErrStorageDegraded", d.Storage)
		}
		emptyDigest := errfs.NewMem(errfs.Faults{}).Transcript()
		if d.Disk == emptyDigest {
			t.Fatal("party D's disk recorded no faults — OpEIOAfter never fired")
		}
		// K's media must have rotted under the primary copy (the transcript
		// records every applied flip), and the final repair must leave the
		// two WAL copies byte-identical.
		if k.Disk == emptyDigest {
			t.Fatal("party K's media recorded no rot — the mirror was never exercised")
		}
		if len(k.WAL) == 0 || !bytes.Equal(k.WAL, k.WAL2) {
			t.Fatalf("K's WAL copies diverge after repair: %d vs %d bytes", len(k.WAL), len(k.WAL2))
		}
		// Agreement + hull validity across the clean parties {D, 2, K} on
		// every instance: storage faults are never protocol-visible.
		if v := res.Judge([]int{D, 2, K}); !v.Agree || !v.Valid {
			t.Fatal(v.Why)
		}
	}

	resA := mustRunCluster(t, c)
	check(resA)
	resB := mustRunCluster(t, c)
	check(resB)

	// Layer-by-layer seed-exact replay: protocol outputs, every session and
	// faultnet transcript, both errfs fault transcripts and K's repaired WAL
	// must match bit for bit.
	if err := experiments.SameRun(resA, resB); err != nil {
		t.Error(err)
	}
}

package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"

	ca "convexagreement"
	"convexagreement/internal/checkpoint"
	"convexagreement/internal/errfs"
)

// E20 sweeps the storage-fault hardening across cluster sizes: every run
// combines a dying disk (permanent EIO mid-session) under one party, bit
// rot under the killed party's mirrored WAL, and a faultnet schedule of
// drops and kills. The claims under measurement are the degrade-and-
// continue policy (a dead disk costs durability, never liveness), the
// mirror's single-copy-rot recovery, and layer-exact determinism: the
// errfs fault transcripts, the recovered session transcript, and the
// protocol outputs must all replay bit-identically under one seed.

// StorageFaults is the combined storage+network soak at size n: party 0
// checkpoints onto a disk that dies permanently after a fixed op budget —
// partway into the first instance — and must degrade and continue, party 1
// is network-disturbed within the t budget, and party n−1 is killed kills
// times, supervised, resuming each time from a mirrored WAL whose primary
// copy sits on media that rots roughly a quarter of its 64-byte blocks, so
// recovery must vote the rotted copy out and repair it from the survivor.
// Storage faults are never protocol-visible: the clean set is everyone but
// party 1.
func StorageFaults(n, instances, kills int, seed int64) Cluster {
	D, C, K := 0, 1, n-1
	input := func(party, seq int) *big.Int { return e18Input(n, party, seq) }
	total := totalRounds(n, instances, input)
	frac := func(f float64) int { return int(f * float64(total)) }
	cfg := ca.FaultConfig{
		Seed: seed,
		Rules: []ca.FaultRule{
			{Kind: ca.FaultDrop, From: ca.AnyParty, To: C, Prob: 0.10},
			{Kind: ca.FaultDelay, From: C, To: ca.AnyParty, Prob: 0.10, DelayRounds: 2},
		},
	}
	for i := 0; i < kills; i++ {
		cfg.Kills = append(cfg.Kills, ca.FaultKill{
			Party: K, Round: frac(0.12 + 0.75*float64(i)/float64(kills)),
		})
	}
	return Cluster{
		N: n, Faults: cfg, Instances: instances,
		Input: input,
		Storage: map[int]Disk{
			D: {Faults: &errfs.Faults{Seed: seed, OpEIOAfter: 60}},
			K: {Mirror: true, Faults: &errfs.Faults{Seed: seed + 1, ReadRotProb: 0.25, RotFile: "wal"}},
		},
	}
}

// E20StorageFaults measures the storage-fault hardening end to end.
func E20StorageFaults() Table {
	type row struct {
		n, instances, kills int
	}
	rows := []row{{7, 3, 2}, {16, 2, 2}, {31, 2, 1}}
	tab := Table{
		ID:    "E20",
		Title: "Storage faults: dying disks, rotting mirrors, killed parties",
		Claim: "a dead disk degrades checkpointing without costing the mesh a party, a mirrored WAL recovers a killed party through single-copy bit rot, and identically-seeded runs replay bit-identically at every layer: outputs, session transcript, and errfs fault transcripts",
		Header: []string{"n", "t", "instances", "kills", "attempts",
			"degraded", "agree", "validity", "replay"},
	}
	for _, r := range rows {
		c := StorageFaults(r.n, r.instances, r.kills, int64(2000+r.n))
		a, b := mustRun(c), mustRun(c)
		v := a.Judge(allBut(r.n, 1))
		D, K := &a.Parties[0], &a.Parties[r.n-1]
		// degraded: the dying-disk party BOTH degraded and finished every
		// instance. replay additionally wants the final repair to have left
		// the two WAL copies identical.
		degraded := errors.Is(D.Storage, checkpoint.ErrStorageDegraded) && D.Err == nil && D.Outs[r.instances-1] != nil
		replay := SameRun(a, b) == nil && len(K.WAL) > 0 && bytes.Equal(K.WAL, K.WAL2)
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprint(r.n), fmt.Sprint(defaultT(r.n)), fmt.Sprint(r.instances),
			fmt.Sprint(r.kills), fmt.Sprint(K.Health.Attempts),
			mark(degraded), mark(v.Agree), mark(v.Valid), mark(replay),
		})
	}
	return tab
}

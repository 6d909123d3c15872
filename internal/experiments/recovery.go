package experiments

import (
	"fmt"
	"math/big"

	ca "convexagreement"
)

// E18 measures the crash-recovery layer end to end: sessions checkpoint every
// round to a write-ahead log, a supervisor restarts the killed party, and the
// restarted party replays the log back to the exact round it died in. The
// local rows run the channet cluster, where an in-process restart reuses the
// hub connection — peers block until the party is back, so it loses no
// messages and stays clean (full agreement asserted, kills included), and
// identically-seeded runs must replay bit-identical session transcripts. The
// tcp row kills a party on a real TCP mesh: the mesh free-runs during the
// restart, the rejoin handshake announces the resume round, and peers serve
// the gap from their buffered outbox tails; the reported rejoin_gap is the
// restart-to-rejoin latency in rounds (frontier − resume round).

// e18Input places the clean parties' inputs in a known band per instance and
// the disturbed party mid-band, so hull checks are uniform.
func e18Input(n, party, seq int) *big.Int {
	base := int64(1000 * seq)
	switch party {
	case 0:
		return big.NewInt(base + 1)
	case n - 1:
		return big.NewInt(base + 17)
	default:
		return big.NewInt(base + 9)
	}
}

// measuredRounds is how long instance seq of a Π_ℤ cluster runs: the rounds
// the simulator counts for the same inputs, fault-free. Kill and fault
// schedules are placed at fractions of it, so they land inside the run
// however long the protocol currently is. A constant outlives the protocol
// it was read off, and a kill scheduled past the end of the run never fires —
// the recovery check becomes a clean run and says ok.
func measuredRounds(n int, input func(party, seq int) *big.Int, seq int) int {
	inputs := make([]*big.Int, n)
	for party := range inputs {
		inputs[party] = input(party, seq)
	}
	res, err := ca.Agree(inputs, ca.Options{})
	if err != nil {
		panic(fmt.Sprintf("experiments: measuring instance %d: %v", seq, err))
	}
	return res.Rounds
}

// totalRounds is measuredRounds over a whole run.
func totalRounds(n, instances int, input func(party, seq int) *big.Int) int {
	total := 0
	for seq := 0; seq < instances; seq++ {
		total += measuredRounds(n, input, seq)
	}
	return total
}

// CrashRecovery is the supervised hub soak: party 1 suffers drops, delays, a
// crash window and a partition (within the t budget, no guarantees) and
// party n−1 is killed kills times, each time resuming from its write-ahead
// log on the real filesystem. The in-process restart loses no messages, so
// the kill target stays clean: the clean set is everyone but party 1.
func CrashRecovery(n, instances, kills int, seed int64) Cluster {
	C, K := 1, n-1
	input := func(party, seq int) *big.Int { return e18Input(n, party, seq) }
	total := totalRounds(n, instances, input)
	frac := func(f float64) int { return int(f * float64(total)) }
	cfg := ca.FaultConfig{
		Seed: seed,
		Rules: []ca.FaultRule{
			{Kind: ca.FaultDrop, From: ca.AnyParty, To: C, Prob: 0.10},
			{Kind: ca.FaultDelay, From: C, To: ca.AnyParty, Prob: 0.10, DelayRounds: 2},
		},
		Crashes: []ca.FaultCrash{
			{Party: C, FromRound: frac(0.30), ToRound: frac(0.30) + 20},
		},
		Partitions: []ca.FaultPartition{
			{FromRound: frac(0.60), ToRound: frac(0.60) + 12, GroupA: []int{C}},
		},
	}
	for i := 0; i < kills; i++ {
		at := frac(0.08 + 0.8*float64(i)/float64(kills))
		cfg.Kills = append(cfg.Kills, ca.FaultKill{Party: K, Round: at})
	}
	return Cluster{
		N: n, Faults: cfg, Instances: instances,
		Input:   input,
		Storage: map[int]Disk{K: {}},
	}
}

// TCPRejoin kills checkpointed party 3 once, half-way through instance 1, on
// a real 4-party TCP mesh. The mesh free-runs during the restart, so the kill
// target's downtime is charged as omissions (within t = 1): the clean set is
// parties 0–2 on every instance, and party 3 — whose input repeats party 0's,
// inside their band — is held to its pre-kill instance only.
func TCPRejoin(instances int) Cluster {
	const n, K = 4, 3
	input := func(party, seq int) *big.Int { return big.NewInt(int64(100*seq + 3*(party%K) + 1)) }
	killRound := measuredRounds(n, input, 0) + measuredRounds(n, input, 1)/2
	return Cluster{
		N: n, TCP: true, Instances: instances,
		Faults:  ca.FaultConfig{Kills: []ca.FaultKill{{Party: K, Round: killRound}}},
		Input:   input,
		Storage: map[int]Disk{K: {}},
	}
}

// E18CrashRecovery measures checkpointed crash recovery under supervision.
func E18CrashRecovery() Table {
	type localRow struct {
		n, instances, kills int
	}
	rows := []localRow{{4, 6, 3}, {7, 4, 2}}
	tab := Table{
		ID:     "E18",
		Title:  "Crash recovery: checkpointed sessions under a kill schedule",
		Claim:  "a party killed mid-session resumes from its write-ahead log to the exact round it died in: agreement and convex validity survive every kill, the channet restart is transcript-exact across identically-seeded runs, and the tcp rejoin closes the frontier gap from peers' outbox tails",
		Header: []string{"mode", "n", "t", "instances", "kills", "attempts", "agree", "validity", "replay", "rejoin_gap"},
	}
	for _, r := range rows {
		c := CrashRecovery(r.n, r.instances, r.kills, int64(1800+r.n))
		a, b := mustRun(c), mustRun(c)
		v := a.Judge(allBut(r.n, 1))
		tab.Rows = append(tab.Rows, []string{
			"channet", fmt.Sprint(r.n), fmt.Sprint(defaultT(r.n)), fmt.Sprint(r.instances),
			fmt.Sprint(r.kills), fmt.Sprint(a.Parties[r.n-1].Health.Attempts),
			mark(v.Agree), mark(v.Valid), mark(SameRun(a, b) == nil), "0",
		})
	}
	// The TCP mesh free-runs during the restart, so its timing (and hence the
	// omission pattern) is not seed-reproducible: no replay claim, and the
	// frontier gap is reported as >0 rather than its exact (run-varying)
	// value so the table stays byte-stable; measured gaps are ≈ 15–45 rounds
	// at Δ = 300 ms on localhost (EXPERIMENTS.md).
	a := mustRun(TCPRejoin(2))
	K := &a.Parties[3]
	v, preKill := a.Judge([]int{0, 1, 2}), a.JudgeInstance(0, allBut(4))
	recovered := K.Err == nil && K.Health.Attempts == 2 // the kill fired and the party came back
	gapCell := "0"
	if K.FrontierGap > 0 {
		gapCell = ">0"
	}
	tab.Rows = append(tab.Rows, []string{
		"tcp-rejoin", "4", "1", "2", "1", fmt.Sprint(K.Health.Attempts),
		mark(recovered && v.Agree && preKill.Agree), mark(recovered && v.Valid), "-", gapCell,
	})
	return tab
}

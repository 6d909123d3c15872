package convexagreement_test

import (
	"errors"
	"math/big"
	"testing"

	ca "convexagreement"
	"convexagreement/internal/experiments"
)

// TestSessionPoisonRegression pins the Session error contract: a failed
// instance leaves Seq unchanged and poisons the session, so two parties can
// never silently disagree on the instance number after a transient error.
func TestSessionPoisonRegression(t *testing.T) {
	locals, err := ca.NewLocalCluster(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer locals[0].Close()
	// MaxRounds 2 starves ProtoOptimal: the instance fails mid-protocol.
	tr, err := ca.WrapFaulty(locals[0], ca.FaultConfig{MaxRounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := ca.NewSession(tr)
	if _, err := s.Agree(ca.ProtoOptimal, 0, big.NewInt(10)); err == nil {
		t.Fatal("starved instance succeeded")
	}
	if s.Seq() != 0 {
		t.Errorf("seq advanced to %d after a failed instance", s.Seq())
	}
	if s.Err() == nil {
		t.Error("no sticky error after failure")
	}
	// The poison is sticky and returned without touching the network (the
	// lock-step schedule is already lost).
	if _, err := s.Agree(ca.ProtoOptimal, 0, big.NewInt(1)); !errors.Is(err, ca.ErrSessionPoisoned) {
		t.Errorf("second call = %v, want ErrSessionPoisoned", err)
	}
	if _, err := s.ApproxAgree(big.NewInt(1), big.NewInt(10), big.NewInt(1)); !errors.Is(err, ca.ErrSessionPoisoned) {
		t.Errorf("approx after poison = %v, want ErrSessionPoisoned", err)
	}
	if tr.Round() != 2 {
		t.Errorf("poisoned calls reached the network: %d rounds, want the 2 of the failed instance", tr.Round())
	}
}

// TestSessionRejectedCallDoesNotPoison: parameter validation failures never
// started an instance, so they must not poison the session.
func TestSessionRejectedCallDoesNotPoison(t *testing.T) {
	locals, err := ca.NewLocalCluster(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer locals[0].Close()
	s := ca.NewSession(locals[0])
	if _, err := s.Agree(ca.ProtoOptimal, 0, nil); !errors.Is(err, ca.ErrOptions) {
		t.Fatalf("nil input: %v", err)
	}
	if s.Err() != nil {
		t.Fatalf("rejected call poisoned the session: %v", s.Err())
	}
	if _, err := s.Agree(ca.ProtoOptimal, 0, big.NewInt(3)); err != nil {
		t.Fatalf("session unusable after rejected call: %v", err)
	}
	if s.Seq() != 1 {
		t.Fatalf("seq = %d, want 1", s.Seq())
	}
}

// mustRunCluster runs one deployed cluster through the harness every
// deployed-stack check shares (internal/experiments/harness.go).
func mustRunCluster(t testing.TB, c experiments.Cluster) *experiments.Result {
	t.Helper()
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCrashRecoverySoak is the long-haul chaos soak of the acceptance
// criteria: E18's supervised hub scenario at soak scale — a 200-instance
// session at n = 4 where party 1 suffers drops, delays, a crash window and a
// partition (counting against t = 1) and party 3 is killed outright five
// times mid-session, each time resuming from its write-ahead log under the
// supervisor — asserting agreement, convex validity, Seq consistency across
// restarts, and seed-exact replay of the recovered run.
func TestCrashRecoverySoak(t *testing.T) {
	instances := 200
	if testing.Short() {
		instances = 30
	}
	const n, K, kills, seed = 4, 3, 5, 0x5eed2026
	c := experiments.CrashRecovery(n, instances, kills, seed)

	check := func(res *experiments.Result) {
		t.Helper()
		k := &res.Parties[K]
		if k.Err != nil {
			t.Fatalf("supervised party: %v (health %s)", k.Err, k.Health)
		}
		if k.Seq != uint64(instances) {
			t.Fatalf("K finished with Seq=%d, want %d", k.Seq, instances)
		}
		if want := kills + 1; k.Health.Attempts != want { // 1 restart per kill
			t.Errorf("supervisor attempts = %d, want %d (health %s)", k.Health.Attempts, want, k.Health)
		}
		// The in-process restart loses no messages, so K is a CLEAN party:
		// agreement and convex validity must hold across {0, 2, K}, every
		// instance, kills included.
		if v := res.Judge([]int{0, 2, K}); !v.Agree || !v.Valid {
			t.Fatal(v.Why)
		}
	}
	resA := mustRunCluster(t, c)
	check(resA)
	resB := mustRunCluster(t, c)
	check(resB)

	// Seed-exact replay: the recovered runs must be bit-identical — outputs,
	// session transcripts and faultnet transcripts at every party.
	if err := experiments.SameRun(resA, resB); err != nil {
		t.Error(err)
	}
}

// TestCrashRecoveryTCPRejoin kills a checkpointed party mid-instance on a
// real TCP mesh (E18's tcp-rejoin scenario) and asserts it resumes from its
// write-ahead log, rejoins via the epoch-stamped handshake (peers replay
// their outbox tails), and completes the session, while the clean parties
// preserve agreement and convex validity throughout.
func TestCrashRecoveryTCPRejoin(t *testing.T) {
	const K, instances = 3, 2
	res := mustRunCluster(t, experiments.TCPRejoin(instances))
	k := &res.Parties[K]
	if k.Err != nil {
		t.Fatalf("supervised party: %v (health %s)", k.Err, k.Health)
	}
	if k.Seq != instances {
		t.Fatalf("K finished with Seq=%d, want %d", k.Seq, instances)
	}
	if k.Health.Attempts != 2 {
		t.Errorf("supervisor attempts = %d, want 2 (health %s)", k.Health.Attempts, k.Health)
	}
	// The mesh ran ahead while K restarted; the rejoin handshake must have
	// observed (and the tails covered) a positive frontier gap.
	if k.FrontierGap == 0 {
		t.Errorf("FrontierGap = 0, want > 0 after a mid-session rejoin")
	}
	// Clean parties: agreement + convex validity on every instance. K's
	// restart charges its downtime as omissions (within t = 1), so K itself
	// is only asserted to terminate consistently on the pre-kill instance.
	if v := res.Judge([]int{0, 1, 2}); !v.Agree || !v.Valid {
		t.Fatal(v.Why)
	}
	if v := res.JudgeInstance(0, []int{0, 1, 2, K}); !v.Agree {
		t.Fatalf("K's pre-kill instance: %s", v.Why)
	}
}

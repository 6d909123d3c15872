// Command catcp runs ONE party of a Convex Agreement cluster over real TCP
// — one process per party, on one machine or many. All parties must be
// started with the same -addrs list (and the same protocol flags) within
// the dial timeout.
//
// A three-party cluster on localhost:
//
//	catcp -id 0 -addrs :7000,:7001,:7002 -input -1005 &
//	catcp -id 1 -addrs :7000,:7001,:7002 -input -1003 &
//	catcp -id 2 -addrs :7000,:7001,:7002 -input -1004
//
// Every process prints the same agreed value, guaranteed to lie within the
// range of the inputs of the correctly running parties.
//
// With -supervised -statedir DIR the party checkpoints every round to a
// write-ahead log in DIR and runs under a stall-detecting supervisor: if the
// process is restarted (or the supervisor restarts a stalled attempt), it
// resumes from the log, redials the mesh announcing its resume round, and
// peers replay the missed rounds from their buffered outbox tails. -instances
// runs a session of several agreement instances (inputs offset by instance
// number) instead of a single one. -mirror keeps two WAL copies with voting
// repair, surviving single-copy bit rot.
//
// Storage is validated before the mesh is dialed: a missing/unwritable
// state directory, an unrecoverable WAL, or state recorded for a different
// (n, t) geometry exits immediately with code 5; an accepted directory is
// then scrubbed (every WAL copy CRC-verified end to end, a damaged mirror
// copy repaired) and the one-line report logged. Storage that degrades
// MID-run does not kill the party — it keeps participating with
// checkpointing disabled (liveness preserved, crash recovery forfeited)
// and the condition is reported in the supervisor health line.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/big"
	"os"
	"strings"
	"time"

	ca "convexagreement"
	"convexagreement/internal/checkpoint"
	"convexagreement/internal/supervisor"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		id         = flag.Int("id", -1, "this party's index into -addrs")
		addrsFlag  = flag.String("addrs", "", "comma-separated listen addresses of ALL parties, in party order")
		t          = flag.Int("t", 0, "corruption budget (default ⌊(n−1)/3⌋)")
		protoName  = flag.String("protocol", string(ca.ProtoOptimal), "protocol: optimal | optimal-nat | fixed-length | fixed-length-blocks | highcost | broadcast")
		width      = flag.Int("width", 0, "public input bit width (fixed-length protocols)")
		inputStr   = flag.String("input", "", "this party's integer input (decimal)")
		delta      = flag.Duration("delta", 2*time.Second, "synchrony bound Δ per round")
		dialTO     = flag.Duration("dial-timeout", 15*time.Second, "time to wait for the full mesh")
		supervised = flag.Bool("supervised", false, "checkpoint every round and restart from the log on stall or error (requires -statedir)")
		stateDir   = flag.String("statedir", "", "directory for the write-ahead log (supervised mode)")
		mirror     = flag.Bool("mirror", false, "supervised mode: keep a dual-copy write-ahead log; single-copy damage (bit rot included) is voted out and repaired")
		instances  = flag.Int("instances", 1, "number of sequential agreement instances in the session")
		restarts   = flag.Int("max-restarts", 3, "supervised mode: restart budget before giving up")
		stallR     = flag.Int("stall-rounds", 8, "supervised mode: rounds of no progress before an attempt is declared stalled")
	)
	flag.Parse()

	addrs := strings.Split(*addrsFlag, ",")
	if *addrsFlag == "" || len(addrs) < 1 {
		fmt.Fprintln(os.Stderr, "catcp: -addrs is required")
		return 2
	}
	if *id < 0 || *id >= len(addrs) {
		fmt.Fprintf(os.Stderr, "catcp: -id must be in [0, %d)\n", len(addrs))
		return 2
	}
	input, ok := new(big.Int).SetString(strings.TrimSpace(*inputStr), 10)
	if !ok {
		fmt.Fprintf(os.Stderr, "catcp: invalid -input %q\n", *inputStr)
		return 2
	}
	if *instances < 1 {
		fmt.Fprintln(os.Stderr, "catcp: -instances must be ≥ 1")
		return 2
	}
	if *supervised && *stateDir == "" {
		fmt.Fprintln(os.Stderr, "catcp: -supervised requires -statedir")
		return 2
	}

	if !*supervised && *mirror {
		fmt.Fprintln(os.Stderr, "catcp: -mirror requires -supervised")
		return 2
	}
	if *supervised {
		return runSupervised(*id, addrs, *t, *protoName, *width, input,
			*delta, *dialTO, *stateDir, *instances, *restarts, *stallR, *mirror)
	}

	fmt.Fprintf(os.Stderr, "catcp: party %d/%d listening on %s, dialing mesh...\n", *id, len(addrs), addrs[*id])
	start := time.Now()
	tr, err := ca.DialTCP(ca.TCPConfig{
		ID:          *id,
		Addrs:       addrs,
		T:           *t,
		Delta:       *delta,
		DialTimeout: *dialTO,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "catcp: mesh:", err)
		return 1
	}
	defer tr.Close()
	fmt.Fprintf(os.Stderr, "catcp: mesh up in %v, running %s...\n", time.Since(start).Round(time.Millisecond), *protoName)

	s := ca.NewSession(tr)
	var out *big.Int
	for seq := 0; seq < *instances; seq++ {
		out, err = s.Agree(ca.Protocol(*protoName), *width, instanceInput(input, seq))
		if err != nil {
			fmt.Fprintln(os.Stderr, "catcp: protocol:", err)
			return 1
		}
		fmt.Println(out) // the agreed value on stdout, scripting-friendly
	}
	fmt.Fprintf(os.Stderr, "catcp: done in %v\n", time.Since(start).Round(time.Millisecond))
	return 0
}

// instanceInput offsets the base input per instance so a multi-instance
// session exercises distinct hulls while staying scriptable from one flag.
func instanceInput(base *big.Int, seq int) *big.Int {
	return new(big.Int).Add(base, big.NewInt(int64(1000*seq)))
}

// runSupervised runs the checkpointed, supervised session: every attempt
// inspects the write-ahead log, redials the mesh announcing the resume
// round, and replays the log before touching the live network.
func runSupervised(id int, addrs []string, t int, protoName string, width int,
	input *big.Int, delta, dialTO time.Duration,
	stateDir string, instances, restarts, stallRounds int, mirror bool) int {
	start := time.Now()
	storage := ca.StorageOptions{Mirror: mirror}

	// Fail fast on an unusable state directory BEFORE dialing the mesh:
	// missing and uncreatable, unwritable, corrupt beyond recovery, or
	// holding a different mesh's (n, t) state all end here with a typed
	// error — not three restart attempts deep with peers already counting
	// this party as live.
	if _, err := ca.ValidateStateDir(stateDir, len(addrs), t, storage); err != nil {
		fmt.Fprintf(os.Stderr, "catcp: state directory rejected: %v\n", err)
		return 5
	}
	// Verify the log's CRC frames end to end (and, with -mirror, repair a
	// damaged copy from the intact one) before anything resumes from it.
	// The one-line report is for the operator's log; ValidateStateDir
	// above stays the gate, so a scrub error is never fatal.
	if rep, err := checkpoint.ScrubOptions(stateDir, storage); err != nil {
		fmt.Fprintf(os.Stderr, "catcp: scrub: %v\n", err)
	} else {
		fmt.Fprintf(os.Stderr, "catcp: %s\n", rep)
	}

	outs := make([]*big.Int, instances)
	health, err := supervisor.Run(supervisor.Config{
		Delta:       delta,
		StallRounds: stallRounds,
		MaxRestarts: restarts,
		N:           len(addrs),
		T:           t,
	}, func(a *supervisor.Attempt) error {
		st, err := ca.InspectStateOpts(stateDir, storage)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "catcp: attempt %d: resuming at instance %d round %d, dialing mesh...\n",
			a.Number, st.Seq, st.NextRound)
		tr, err := ca.DialTCP(ca.TCPConfig{
			ID:          id,
			Addrs:       addrs,
			T:           t,
			Delta:       delta,
			DialTimeout: dialTO,
			ResumeRound: st.NextRound,
		})
		if err != nil {
			return err
		}
		defer tr.Close()
		a.AbortOnStall(func() { tr.Close() })
		s := ca.NewSession(tr)
		if err := s.ResumeOpts(stateDir, storage); err != nil {
			return err
		}
		defer s.Close()
		a.Progress(s.Rounds)
		a.ReportStorage(s.StorageErr()) // mirrored open may already be degraded
		if gap := tr.FrontierGap(); gap > 0 {
			fmt.Fprintf(os.Stderr, "catcp: rejoined a mesh %d rounds ahead\n", gap)
		}
		storageNoted := s.StorageErr() != nil
		for seq := s.Seq(); seq < uint64(instances); seq++ {
			a.ReportPeers(len(addrs) - len(tr.Faulty()))
			a.ReportDemotions(tr.Demotions())
			out, err := s.Agree(ca.Protocol(protoName), width, instanceInput(input, int(seq)))
			if serr := s.StorageErr(); serr != nil {
				// Degrade-and-continue: the party stays in the mesh with
				// checkpointing impaired or disabled. Liveness is preserved;
				// a crash from here on cannot be resumed.
				a.ReportStorage(serr)
				if !storageNoted {
					storageNoted = true
					fmt.Fprintf(os.Stderr, "catcp: storage degraded, continuing without recovery: %v\n", serr)
				}
			}
			if err != nil {
				return err
			}
			outs[seq] = out
		}
		return nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "catcp: supervised session failed: %v\n", err)
		fmt.Fprintf(os.Stderr, "catcp: health: %s\n", health)
		switch {
		case errors.Is(err, supervisor.ErrQuorumLost):
			return 3
		case errors.Is(err, supervisor.ErrStalled), errors.Is(err, supervisor.ErrRestartsExhausted):
			return 4
		case errors.Is(err, supervisor.ErrStorageLost):
			return 5
		}
		return 1
	}
	fmt.Fprintf(os.Stderr, "catcp: done in %v (%d attempts)\n",
		time.Since(start).Round(time.Millisecond), health.Attempts)
	for _, out := range outs {
		fmt.Println(out)
	}
	return 0
}

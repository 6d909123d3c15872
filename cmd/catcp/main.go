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
	"io"
	"math/big"
	"os"
	"strings"
	"time"

	ca "convexagreement"
	"convexagreement/internal/checkpoint"
	"convexagreement/internal/supervisor"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command on args, writing the agreed values to stdout and its
// log to stderr; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("catcp", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		id         = flags.Int("id", -1, "this party's index into -addrs")
		addrsFlag  = flags.String("addrs", "", "comma-separated listen addresses of ALL parties, in party order")
		t          = flags.Int("t", 0, "corruption budget (default ⌊(n−1)/3⌋)")
		protoName  = flags.String("protocol", string(ca.ProtoOptimal), "protocol: optimal | optimal-nat | fixed-length | fixed-length-blocks | highcost | broadcast")
		width      = flags.Int("width", 0, "public input bit width (fixed-length protocols)")
		inputStr   = flags.String("input", "", "this party's integer input (decimal)")
		delta      = flags.Duration("delta", 2*time.Second, "synchrony bound Δ per round")
		dialTO     = flags.Duration("dial-timeout", 15*time.Second, "time to wait for the full mesh")
		supervised = flags.Bool("supervised", false, "checkpoint every round and restart from the log on stall or error (requires -statedir)")
		stateDir   = flags.String("statedir", "", "directory for the write-ahead log (supervised mode)")
		mirror     = flags.Bool("mirror", false, "supervised mode: keep a dual-copy write-ahead log; single-copy damage (bit rot included) is voted out and repaired")
		instances  = flags.Int("instances", 1, "number of sequential agreement instances in the session")
		restarts   = flags.Int("max-restarts", 3, "supervised mode: restart budget before giving up")
		stallR     = flags.Int("stall-rounds", 8, "supervised mode: rounds of no progress before an attempt is declared stalled")
	)
	switch err := flags.Parse(args); {
	case errors.Is(err, flag.ErrHelp):
		return 0
	case err != nil:
		return 2
	}

	addrs := strings.Split(*addrsFlag, ",")
	if *addrsFlag == "" || len(addrs) < 1 {
		fmt.Fprintln(stderr, "catcp: -addrs is required")
		return 2
	}
	if *id < 0 || *id >= len(addrs) {
		fmt.Fprintf(stderr, "catcp: -id must be in [0, %d)\n", len(addrs))
		return 2
	}
	input, ok := new(big.Int).SetString(strings.TrimSpace(*inputStr), 10)
	if !ok {
		fmt.Fprintf(stderr, "catcp: invalid -input %q\n", *inputStr)
		return 2
	}
	if *instances < 1 {
		fmt.Fprintln(stderr, "catcp: -instances must be ≥ 1")
		return 2
	}
	if *supervised && *stateDir == "" {
		fmt.Fprintln(stderr, "catcp: -supervised requires -statedir")
		return 2
	}

	if !*supervised && *mirror {
		fmt.Fprintln(stderr, "catcp: -mirror requires -supervised")
		return 2
	}
	// The one resolution of the default budget: the mesh, the state
	// directory's geometry check and the supervisor's quorum all take it.
	if *t == 0 {
		*t = (len(addrs) - 1) / 3
	}
	if *supervised {
		return runSupervised(*id, addrs, *t, *protoName, *width, input,
			*delta, *dialTO, *stateDir, *instances, *restarts, *stallR, *mirror, stdout, stderr)
	}

	fmt.Fprintf(stderr, "catcp: party %d/%d listening on %s, dialing mesh...\n", *id, len(addrs), addrs[*id])
	start := time.Now()
	tr, err := ca.DialTCP(ca.TCPConfig{
		ID:          *id,
		Addrs:       addrs,
		T:           *t,
		Delta:       *delta,
		DialTimeout: *dialTO,
	})
	if err != nil {
		fmt.Fprintln(stderr, "catcp: mesh:", err)
		return 1
	}
	defer tr.Close()
	fmt.Fprintf(stderr, "catcp: mesh up in %v, running %s...\n", time.Since(start).Round(time.Millisecond), *protoName)

	s := ca.NewSession(tr)
	var out *big.Int
	for seq := 0; seq < *instances; seq++ {
		out, err = s.Agree(ca.Protocol(*protoName), *width, instanceInput(input, seq))
		if err != nil {
			fmt.Fprintln(stderr, "catcp: protocol:", err)
			return 1
		}
		fmt.Fprintln(stdout, out) // the agreed value on stdout, scripting-friendly
	}
	fmt.Fprintf(stderr, "catcp: done in %v\n", time.Since(start).Round(time.Millisecond))
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
	stateDir string, instances, restarts, stallRounds int, mirror bool, stdout, stderr io.Writer) int {
	start := time.Now()
	storage := ca.StorageOptions{Mirror: mirror}

	// Fail fast on an unusable state directory BEFORE dialing the mesh:
	// missing and uncreatable, unwritable, corrupt beyond recovery, or
	// holding a different mesh's (n, t) state all end here with a typed
	// error — not three restart attempts deep with peers already counting
	// this party as live.
	if _, err := ca.ValidateStateDir(stateDir, len(addrs), t, storage); err != nil {
		fmt.Fprintf(stderr, "catcp: state directory rejected: %v\n", err)
		return 5
	}
	// Verify the log's CRC frames end to end (and, with -mirror, repair a
	// damaged copy from the intact one) before anything resumes from it.
	// The one-line report is for the operator's log; ValidateStateDir
	// above stays the gate, so a scrub error is never fatal.
	if rep, err := checkpoint.ScrubOptions(stateDir, storage); err != nil {
		fmt.Fprintf(stderr, "catcp: scrub: %v\n", err)
	} else {
		fmt.Fprintf(stderr, "catcp: %s\n", rep)
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
		fmt.Fprintf(stderr, "catcp: attempt %d: resuming at instance %d round %d, dialing mesh...\n",
			a.Number, st.Seq, st.NextRound)
		if st.Output != nil && st.Seq > 0 && st.Seq <= uint64(instances) {
			outs[st.Seq-1] = st.Output // a completed run's last output, from the WAL
		}
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
			fmt.Fprintf(stderr, "catcp: rejoined a mesh %d rounds ahead\n", gap)
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
					fmt.Fprintf(stderr, "catcp: storage degraded, continuing without recovery: %v\n", serr)
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
		fmt.Fprintf(stderr, "catcp: supervised session failed: %v\n", err)
		fmt.Fprintf(stderr, "catcp: health: %s\n", health)
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
	fmt.Fprintf(stderr, "catcp: done in %v (%d attempts)\n",
		time.Since(start).Round(time.Millisecond), health.Attempts)
	// Every output this process agreed on or found in the WAL; an instance
	// a previous run completed whose output the WAL no longer holds (the
	// slot switched past it) is named instead of printed.
	var lost []int
	for seq, out := range outs {
		if out == nil {
			lost = append(lost, seq)
			continue
		}
		fmt.Fprintln(stdout, out)
	}
	if lost != nil {
		fmt.Fprintf(stderr, "catcp: no output held for instances %v: a previous run completed them\n", lost)
	}
	return 0
}

package convexagreement

import (
	"errors"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"sync/atomic"

	"convexagreement/internal/checkpoint"
	"convexagreement/internal/core"
	"convexagreement/internal/errfs"
	"convexagreement/internal/hashing"
	"convexagreement/internal/transport"
)

// Session runs a sequence of agreement instances over one long-lived
// transport — the shape real deployments need (a price oracle publishing
// every epoch, a clock network timestamping every block). Instances run
// back-to-back in the synchronous schedule: every party must call the same
// methods in the same order, which the transport's lock-step rounds then
// align automatically.
//
// Error contract: a failed instance POISONS the session. Because the
// schedule is lock-step, a party whose instance aborted mid-protocol has
// lost round alignment with its peers — silently continuing would let two
// parties disagree on the instance number (and round) forever. After an
// error, Seq is unchanged and every further Agree/ApproxAgree returns
// ErrSessionPoisoned wrapping the original failure. Recovery is explicit:
// a checkpointed session (see Checkpoint) is re-opened with NewSession +
// Resume, which replays the write-ahead log and rejoins at the exact round
// the session died in; an uncheckpointed session must be abandoned along
// with its transport.
type Session struct {
	tr  Transport
	seq uint64
	err error // sticky poison; nil while healthy

	rounds atomic.Uint64 // total rounds exchanged, watchdog-probe safe
	digest uint64        // FNV-1a over every delivered round (replayed + live)

	log        *checkpoint.Log      // nil when not checkpointing
	partial    *checkpoint.Instance // pending replay after Resume
	replay     [][]transport.Message
	replayAt   int
	storageErr error // sticky degraded-storage condition; see StorageErr

	// bufs holds a long value across the session's instances; see
	// core.Buffers.
	bufs core.Buffers
}

// NewSession wraps a connected transport.
func NewSession(tr Transport) *Session {
	return &Session{tr: tr, digest: hashing.FNVOffset}
}

// ErrSessionPoisoned marks a session dead after a failed instance; see the
// Session error contract.
var ErrSessionPoisoned = errors.New("convexagreement: session poisoned by failed instance")

// ErrResumeMismatch reports that a resumed instance was re-driven with
// different parameters than the write-ahead log recorded. Deterministic
// replay requires the caller to re-issue the exact call that was in flight
// when the session died.
var ErrResumeMismatch = errors.New("convexagreement: resumed call does not match checkpointed instance")

// ErrReplayDiverged reports that replaying the write-ahead log did not
// reproduce the recorded execution (the instance finished with recorded
// rounds left over) — the protocol, inputs, or log are inconsistent.
var ErrReplayDiverged = errors.New("convexagreement: checkpoint replay diverged")

// Seq returns the number of instances completed so far (including
// completed instances recovered by Resume).
func (s *Session) Seq() uint64 { return s.seq }

// Err returns the sticky error that poisoned the session, or nil.
func (s *Session) Err() error { return s.err }

// Rounds returns the total number of rounds this session has exchanged,
// counting rounds replayed from a checkpoint. It is safe to call from
// other goroutines (a supervisor's stall probe) while an instance runs.
func (s *Session) Rounds() uint64 { return s.rounds.Load() }

// Transcript returns a digest of every round inbox delivered to this
// session object, replayed and live alike: an FNV-1a fold of each round's
// number and message count and each message's sender and length, byte by
// byte, and of its payload a word at a time (hashing.FNVBytes: eight bytes
// per step, the tail byte by byte). Identically-seeded deterministic runs —
// including runs interrupted by crash/resume at the same rounds — yield
// identical digests.
func (s *Session) Transcript() uint64 { return s.digest }

// StorageOptions configures how a checkpoint directory is kept — the
// checkpoint layer's own options, passed through without conversion. The
// zero value is the default: single-copy WAL on the real filesystem.
//
//	FS     errfs.FS // overrides the filesystem — the storage-fault seam used by tests and soaks (internal/errfs.Mem); nil means the real filesystem
//	Mirror bool     // the dual-copy WAL: every record is written and fsync'd to two files, recovery votes for the longest intact prefix and repairs the other copy, so any damage confined to one copy (bit rot included) loses nothing
type StorageOptions = checkpoint.Options

// Checkpoint enables durable write-ahead logging of this session into dir:
// instance parameters and every completed round's inbox are CRC-framed,
// appended, and fsync'd, so the session can be resumed after a crash (see
// Resume). dir must not already contain session state; use Resume to
// continue an existing checkpoint.
func (s *Session) Checkpoint(dir string) error {
	return s.CheckpointOpts(dir, StorageOptions{})
}

// CheckpointOpts is Checkpoint with explicit storage options.
func (s *Session) CheckpointOpts(dir string, o StorageOptions) error {
	log, st, err := checkpoint.OpenOptions(dir, o)
	if err != nil {
		return err
	}
	if st.HasMeta || st.Seq > 0 || st.Partial != nil {
		_ = log.Close() // rejecting the dir; nothing was written
		return fmt.Errorf("%w: %s already holds session state; use Resume", ErrOptions, dir)
	}
	if err := log.AppendMeta(s.tr.N(), s.tr.T()); err != nil {
		_ = log.Close() // already failing; the append error is the story
		return err
	}
	s.log = log
	s.storageErr = log.Degraded() // mirrored open may already run on one copy
	return nil
}

// Resume loads checkpointed session state from dir and continues recording
// into it. Completed instances advance Seq without re-running; if the log
// ends inside an instance, the next Agree/ApproxAgree call must repeat the
// recorded parameters exactly and will first replay the recorded rounds
// (reconstructing the protocol state deterministically, without touching
// the network) before going live at the round the session died in.
//
// The transport must already be positioned at the resume round: a
// rejoining TCP party dials with TCPConfig.ResumeRound = the NextRound
// reported by InspectState, and a fault-injection wrapper is re-created
// with WrapFaultyAt at the same round.
func (s *Session) Resume(dir string) error {
	return s.ResumeOpts(dir, StorageOptions{})
}

// ResumeOpts is Resume with explicit storage options.
func (s *Session) ResumeOpts(dir string, o StorageOptions) error {
	log, st, err := checkpoint.OpenOptions(dir, o)
	if err != nil {
		return err
	}
	if st.HasMeta && (st.N != s.tr.N() || st.T != s.tr.T()) {
		_ = log.Close() // rejecting the dir; nothing was written
		return fmt.Errorf("%w: checkpoint is for n=%d t=%d, transport has n=%d t=%d",
			ErrOptions, st.N, st.T, s.tr.N(), s.tr.T())
	}
	if !st.HasMeta {
		if err := log.AppendMeta(s.tr.N(), s.tr.T()); err != nil {
			_ = log.Close() // already failing; the append error is the story
			return err
		}
	}
	s.log = log
	s.seq = st.Seq
	s.partial = st.Partial
	s.storageErr = log.Degraded()
	return nil
}

// StorageErr returns the session's sticky storage condition: nil while
// checkpoint storage is fully healthy, an error wrapping
// checkpoint.ErrStorageDegraded after the WAL degraded (one mirror copy
// down, or checkpointing disabled entirely — see the degrade-and-continue
// policy on Exchange). Safe to read between instances; a supervisor
// forwards it via Attempt.ReportStorage.
func (s *Session) StorageErr() error { return s.storageErr }

// noteStorageFailure implements the degrade-and-continue policy: a WAL
// append that fails with a typed storage error stops checkpointing but
// does NOT poison the session — the party keeps participating (liveness,
// agreement, and hull validity don't depend on its disk), it merely
// forfeits crash recovery. Returns true if the error was a storage
// condition that has been absorbed; false means the caller must treat it
// as fatal.
func (s *Session) noteStorageFailure(err error) bool {
	if !errors.Is(err, checkpoint.ErrStorageDegraded) && !errors.Is(err, checkpoint.ErrStorageLost) {
		return false
	}
	s.storageErr = err
	if s.log != nil {
		_ = s.log.Close() // best effort; the WAL is already being abandoned
		s.log = nil
	}
	return true
}

// SessionState is what InspectState recovered from a checkpoint directory.
type SessionState struct {
	// Seq is the number of completed instances.
	Seq uint64
	// NextRound is the absolute transport round at which a resumed session
	// goes live — pass it as TCPConfig.ResumeRound (and WrapFaultyAt's
	// startRound) before calling NewSession + Resume.
	NextRound uint64
	// Partial reports whether the log ends inside an instance, whose call
	// must be re-issued with identical parameters after Resume.
	Partial bool
	// Output is instance Seq−1's output when the log still holds it (the
	// live slot completed that instance), nil otherwise.
	Output *big.Int
}

// InspectState peeks at a checkpoint directory without opening a session —
// the first step of a restart, run before the transport is dialed. A
// missing or empty checkpoint yields the zero state.
func InspectState(dir string) (SessionState, error) {
	return InspectStateOpts(dir, StorageOptions{})
}

// InspectStateOpts is InspectState with explicit storage options.
func InspectStateOpts(dir string, o StorageOptions) (SessionState, error) {
	st, err := checkpoint.InspectOptions(dir, o)
	if err != nil {
		return SessionState{}, err
	}
	return sessionState(st), nil
}

// sessionState is st as InspectState reports it.
func sessionState(st *checkpoint.State) SessionState {
	ss := SessionState{Seq: st.Seq, NextRound: st.NextRound, Partial: st.Partial != nil}
	if st.Last != nil {
		ss.Output = st.Last.Output
	}
	return ss
}

// ErrStateDir reports an unusable checkpoint directory at startup:
// missing and uncreatable, unwritable, unreadable, or holding state for a
// different mesh geometry. Deployments check it BEFORE dialing peers —
// failing fast beats joining the mesh and dying on the first append.
var ErrStateDir = errors.New("convexagreement: unusable state directory")

// ValidateStateDir fail-fast-checks a checkpoint directory for a party of
// an (n, t) mesh: the directory must exist (it is created if missing), be
// writable (probed with a real create+fsync+remove cycle), its WAL must
// replay, and any recorded meta must match the mesh geometry. Returns the
// recovered state so callers skip a second Inspect. All failures wrap
// ErrStateDir; storage-level causes additionally retain their typed cause
// (checkpoint.ErrStorageLost, ErrCorrupt) in the chain.
func ValidateStateDir(dir string, n, t int, o StorageOptions) (SessionState, error) {
	fs := o.FS
	if fs == nil {
		fs = errfs.OS{}
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return SessionState{}, fmt.Errorf("%w: cannot create %s: %v", ErrStateDir, dir, err)
	}
	probe := filepath.Join(dir, ".probe")
	f, err := fs.OpenFile(probe, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return SessionState{}, fmt.Errorf("%w: %s is not writable: %v", ErrStateDir, dir, err)
	}
	_, werr := f.Write([]byte("probe"))
	serr := f.Sync()
	cerr := f.Close()
	_ = fs.Remove(probe) // best effort; a stale probe file is harmless
	if werr != nil || serr != nil || cerr != nil {
		return SessionState{}, fmt.Errorf("%w: %s failed the write probe (write=%v sync=%v close=%v)",
			ErrStateDir, dir, werr, serr, cerr)
	}
	st, err := checkpoint.InspectOptions(dir, o)
	if err != nil {
		return SessionState{}, fmt.Errorf("%w: %w", ErrStateDir, err)
	}
	if st.HasMeta && (st.N != n || st.T != t) {
		return SessionState{}, fmt.Errorf("%w: %s holds state for n=%d t=%d, mesh is n=%d t=%d",
			ErrStateDir, dir, st.N, st.T, n, t)
	}
	return sessionState(st), nil
}

// Close releases the checkpoint log, if any. The transport is the
// caller's to close.
func (s *Session) Close() error {
	if s.log != nil {
		return s.log.Close()
	}
	return nil
}

// Agree runs the next Convex Agreement instance of the session.
func (s *Session) Agree(protocol Protocol, width int, input *big.Int) (*big.Int, error) {
	return s.runInstance(agreeCall(protocol, width), input)
}

// ApproxAgree runs the next synchronous Approximate Agreement instance of
// the session (see ApproxAgree for the parameter semantics).
func (s *Session) ApproxAgree(input, diameterBound, epsilon *big.Int) (*big.Int, error) {
	return s.runInstance(call{protocol: protoApprox, diam: diameterBound, eps: epsilon}, input)
}

// runInstance drives one instance through the recording/replaying net,
// handling the checkpoint bookkeeping and the poison contract.
func (s *Session) runInstance(c call, input *big.Int) (*big.Int, error) {
	if s.err != nil {
		return nil, s.err
	}
	// A rejected call never started an instance on the wire or in the
	// write-ahead log, so it does not poison the session.
	if _, err := c.validate(s.tr.N(), []*big.Int{input}); err != nil {
		return nil, err
	}
	inst := &checkpoint.Instance{
		Seq:      s.seq,
		Kind:     checkpoint.KindAgree,
		Protocol: string(c.protocol),
		Width:    c.width,
		Input:    input,
		Diam:     c.diam,
		Eps:      c.eps,
	}
	if c.protocol == protoApprox {
		inst.Kind, inst.Protocol = checkpoint.KindApprox, "" // as the log has always recorded it
	}
	if s.partial != nil {
		if err := matchPartial(s.partial, inst); err != nil {
			s.err = err
			return nil, err
		}
		s.replay = s.partial.Rounds
		s.replayAt = 0
		s.partial = nil
	} else if s.log != nil {
		if err := s.log.AppendInstance(inst); err != nil && !s.noteStorageFailure(err) {
			s.err = fmt.Errorf("%w: %v", ErrSessionPoisoned, err)
			return nil, err
		}
	}
	out, err := c.run(sessionNet{s.tr, s}, input, &s.bufs)
	s.bufs.Reset()
	if err != nil {
		err = fmt.Errorf("session instance %d: %w", s.seq, err)
		s.err = fmt.Errorf("%w: %v", ErrSessionPoisoned, err)
		return nil, err
	}
	if s.replayAt < len(s.replay) {
		err := fmt.Errorf("%w: instance %d finished with %d recorded rounds unconsumed",
			ErrReplayDiverged, s.seq, len(s.replay)-s.replayAt)
		s.err = err
		return nil, err
	}
	s.replay, s.replayAt = nil, 0
	if s.log != nil {
		if err := s.log.AppendEnd(out); err != nil && !s.noteStorageFailure(err) {
			s.err = fmt.Errorf("%w: %v", ErrSessionPoisoned, err)
			return nil, err
		}
	}
	s.seq++
	return out, nil
}

// matchPartial verifies a resumed call repeats the checkpointed one.
func matchPartial(rec, call *checkpoint.Instance) error {
	switch {
	case rec.Kind != call.Kind:
		return fmt.Errorf("%w: instance %d is kind %d, called as %d", ErrResumeMismatch, rec.Seq, rec.Kind, call.Kind)
	case rec.Protocol != call.Protocol || rec.Width != call.Width:
		return fmt.Errorf("%w: instance %d recorded %s/%d, called with %s/%d",
			ErrResumeMismatch, rec.Seq, rec.Protocol, rec.Width, call.Protocol, call.Width)
	case !bigEq(rec.Input, call.Input) || !bigEq(rec.Diam, call.Diam) || !bigEq(rec.Eps, call.Eps):
		return fmt.Errorf("%w: instance %d parameters differ from the recorded call", ErrResumeMismatch, rec.Seq)
	}
	return nil
}

func bigEq(a, b *big.Int) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Cmp(b) == 0
}

// sessionNet is the session's view of the transport: it serves replayed
// rounds from the checkpoint before touching the live network, appends
// every live round to the write-ahead log, and maintains the session's
// round counter and transcript digest.
type sessionNet struct {
	Transport // ID, N and T are the transport's own
	s         *Session
}

func (n sessionNet) Exchange(out []transport.Packet) ([]transport.Message, error) {
	s := n.s
	if s.replayAt < len(s.replay) {
		// Replayed round: the protocol's outgoing packets were already on
		// the wire before the crash; peers hold (or held) them, so out is
		// discarded and the recorded inbox is served verbatim.
		msgs := s.replay[s.replayAt]
		s.replayAt++
		s.absorb(msgs)
		return msgs, nil
	}
	msgs, err := s.tr.Exchange(out)
	if err != nil {
		return nil, err
	}
	if s.log != nil {
		if err := s.log.AppendRound(msgs); err != nil && !s.noteStorageFailure(err) {
			return nil, err
		}
	}
	s.absorb(msgs)
	return msgs, nil
}

// absorb folds one delivered round into the transcript digest and bumps
// the round counter.
func (s *Session) absorb(msgs []transport.Message) {
	d := s.digest
	d = hashing.FNVWord(d, s.rounds.Load())
	d = hashing.FNVWord(d, uint64(len(msgs)))
	for _, m := range msgs {
		d = hashing.FNVWord(d, uint64(m.From))
		d = hashing.FNVWord(d, uint64(len(m.Payload)))
		d = hashing.FNVBytes(d, m.Payload)
	}
	s.digest = d
	s.rounds.Add(1)
}

// Package checkpoint is the durable write-ahead log behind resumable
// sessions: every round a checkpointed party completes is appended to an
// fsync'd, CRC-framed log, so a party killed mid-instance can replay its
// exact view — same inputs, same per-round inboxes — and deterministically
// re-derive the protocol state it died in.
//
// The paper's model (§2) has no recovery story: a crashed party is
// corrupt-and-silent forever and charged against t. For a long-lived
// deployment (the ROADMAP's price oracle / clock network) that accounting
// is too pessimistic — a party that restarts with its state intact is
// *honest*, not byzantine. The WAL supplies exactly the state that makes
// the restart deterministic: because every protocol in this repository is a
// deterministic function of (input, received inboxes), replaying the
// recorded inboxes reproduces the party's outbound traffic and internal
// state bit-for-bit without serializing any protocol internals.
//
// Record framing (append-only, single file "wal" in the directory; a
// second copy "wal2" in mirrored mode):
//
//	uvarint  body length
//	body     (wire-encoded record, first byte is the record kind)
//	4 bytes  CRC-32C of body, little-endian
//
// Replay is torn-write tolerant: a truncated or CRC-damaged tail (the
// record being appended when the process died) is discarded and the file is
// truncated back to the last intact record. Corruption *before* the tail is
// indistinguishable from a tail under sequential scanning, so a single-copy
// log silently keeps the intact prefix — prefix-consistent, never divergent
// — while the mirrored mode recovers the longer prefix from the surviving
// copy (last-good-record voting, see Scrub) and repairs the damaged one.
//
// Storage discipline (hardened by the internal/errfs crash-point
// explorer): every append is fsync'd before being reported durable; the
// state DIRECTORY is fsync'd after the WAL is created (a crash right
// after create can otherwise lose the file entry itself, data and all)
// and after a torn-tail truncation is written back. All file operations
// go through an errfs.FS seam — the default is the real filesystem at
// zero overhead; tests swap in errfs.Mem to inject short writes, torn
// writes, fsync lies, bit rot, EIO, and ENOSPC at every operation.
//
// Record kinds:
//
//	meta      session geometry (n, t) — first record, written once
//	instance  start of instance: seq, kind, protocol, width, input [, D, ε]
//	round     one completed round's inbox: {from, payload}*
//	end       instance completed: the output
package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/big"
	"os"
	"path/filepath"

	"convexagreement/internal/errfs"
	"convexagreement/internal/transport"
	"convexagreement/internal/wire"
)

// Errors returned by the checkpoint layer.
var (
	// ErrCorrupt reports WAL damage that is not a torn tail — a record
	// decoded inconsistently (structurally impossible sequences, not CRC
	// noise).
	ErrCorrupt = errors.New("checkpoint: corrupt write-ahead log")
	// ErrClosed reports an append to a closed log.
	ErrClosed = errors.New("checkpoint: log closed")
	// ErrStorageDegraded reports that durability is impaired but the party
	// can keep running: an append failed (or, in mirrored mode, one copy
	// failed and the log fell back to the survivor). A session that sees
	// this from an append disables checkpointing and keeps participating —
	// liveness preserved, recovery forfeited.
	ErrStorageDegraded = errors.New("checkpoint: storage degraded")
	// ErrStorageLost reports that the checkpoint state cannot be read or
	// recovered at all — the directory is unusable or every WAL copy
	// failed. Resume is impossible; a restart must either run
	// uncheckpointed or give up.
	ErrStorageLost = errors.New("checkpoint: storage lost")
)

// Options selects the filesystem and the redundancy mode. The zero value
// is the production default: the real filesystem, single-copy WAL.
type Options struct {
	// FS is the filesystem seam; nil means the real OS filesystem.
	FS errfs.FS
	// Mirror enables the dual-copy WAL ("wal" + "wal2"): appends go to
	// both copies, recovery votes for the longest intact record prefix
	// and repairs the other copy from it, so any damage confined to one
	// copy — bit rot included — loses nothing.
	Mirror bool
}

func (o Options) fs() errfs.FS {
	if o.FS == nil {
		return errfs.OS{}
	}
	return o.FS
}

func (o Options) copyNames() []string {
	if o.Mirror {
		return []string{walName, walMirror}
	}
	return []string{walName}
}

// WAL copy file names inside the state directory.
const (
	walName   = "wal"
	walMirror = "wal2"
)

// Record kinds (first body byte).
const (
	recMeta     byte = 1
	recInstance byte = 2
	recRound    byte = 3
	recEnd      byte = 4
)

// Instance kinds.
const (
	// KindAgree is a Session.Agree instance (protocol, width, input).
	KindAgree byte = 1
	// KindApprox is a Session.ApproxAgree instance (input, D, ε).
	KindApprox byte = 2
)

// castagnoli is the CRC-32C table used for record framing.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxRecord bounds one WAL record body (a round inbox for one party); it
// matches the transports' 64 MiB frame ceiling.
const maxRecord = 64 << 20

// Instance is one recorded agreement instance.
type Instance struct {
	Seq      uint64
	Kind     byte   // KindAgree or KindApprox
	Protocol string // KindAgree only
	Width    int    // KindAgree only
	Input    *big.Int
	Diam     *big.Int // KindApprox only
	Eps      *big.Int // KindApprox only
	// Rounds holds the recorded per-round inboxes, in order. For completed
	// instances replayed from disk this is discarded (only the partial tail
	// instance needs its rounds for replay).
	Rounds [][]transport.Message
	Done   bool
	Output *big.Int
}

// State is what Open recovered from an existing WAL.
type State struct {
	// HasMeta reports whether a meta record was found; N and T are only
	// meaningful when it is set.
	HasMeta bool
	N, T    int
	// Seq is the number of completed instances.
	Seq uint64
	// NextRound is the total number of rounds recorded across all
	// instances — the absolute transport round at which a resumed party
	// goes live (feed it to the transport's resume/rejoin configuration).
	NextRound uint64
	// Partial is the instance the WAL ends inside, nil if the log ends at
	// an instance boundary. Its Rounds are the inboxes to replay.
	Partial *Instance
}

// walCopy is one physical copy of the log.
type walCopy struct {
	name string // path, for error reporting
	f    errfs.File
	dead bool
	err  error // why the copy was demoted

	// replay results, used during Open only.
	st   *State
	off  int64
	nrec int
	raw  []byte // intact byte prefix (mirror mode only)
	size int64
}

// Log is an open write-ahead log. Appends are fsync'd on every copy
// before returning, so a record that was reported durable survives
// process death. Not safe for concurrent use; a session drives it from
// one goroutine.
type Log struct {
	fs     errfs.FS
	dir    string
	copies []*walCopy
	// degraded is the sticky typed condition after any copy failed;
	// nil while fully healthy.
	degraded error
	closed   bool
	// body and frame are the append scratch — the record being encoded and
	// its framed form — reset for every record instead of reallocated: the
	// single-goroutine contract serialises appends, and a File's Write
	// keeps nothing of what it is handed once it returns.
	body, frame wire.Writer
}

// Open opens (creating if necessary) the WAL in dir on the real
// filesystem, replays it tolerating a torn tail, truncates any torn
// bytes, and returns the recovered state with the log positioned for
// appending.
func Open(dir string) (*Log, *State, error) { return OpenOptions(dir, Options{}) }

// OpenOptions is Open over an explicit filesystem and redundancy mode.
func OpenOptions(dir string, o Options) (*Log, *State, error) {
	fs := o.fs()
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("%w: mkdir %s: %v", ErrStorageLost, dir, err)
	}
	l := &Log{fs: fs, dir: dir}
	created := false
	for _, name := range o.copyNames() {
		path := filepath.Join(dir, name)
		c := &walCopy{name: path}
		f, madeNew, err := openCopy(fs, path)
		if err != nil {
			c.dead, c.err = true, err
		} else {
			c.f = f
			created = created || madeNew
		}
		l.copies = append(l.copies, c)
	}
	if created {
		// The WAL's directory entry must itself be durable: without this
		// fsync a crash right after create loses the file — entry, data,
		// fsyncs and all (verified by the errfs crash-point explorer).
		if err := fs.SyncDir(dir); err != nil {
			l.closeAll()
			return nil, nil, fmt.Errorf("%w: fsync dir %s: %v", ErrStorageLost, dir, err)
		}
	}

	// Replay every live copy independently.
	for _, c := range l.copies {
		if c.dead {
			continue
		}
		st, off, nrec, raw, err := replayCopy(c.f, o.Mirror)
		if err != nil {
			l.demote(c, err)
			continue
		}
		c.st, c.off, c.nrec, c.raw = st, off, nrec, raw
		if c.size, err = c.f.Seek(0, io.SeekEnd); err != nil {
			l.demote(c, fmt.Errorf("size: %w", err))
		}
	}

	// Vote: the copy with the longest intact record prefix wins. Try
	// finalists in vote order so a winner whose tail truncation fails
	// falls back to the next-best copy instead of losing everything.
	for {
		w := l.vote()
		if w == nil {
			err := l.firstErr()
			l.closeAll()
			if len(l.copies) == 1 {
				return nil, nil, err // preserve the single copy's typed error
			}
			return nil, nil, fmt.Errorf("%w: every WAL copy failed: %v", ErrStorageLost, err)
		}
		if err := finalizeWinner(fs, dir, w); err != nil {
			l.demote(w, err)
			continue
		}
		// Repair the other copies from the winner (mirror mode).
		for _, c := range l.copies {
			if c == w || c.dead {
				continue
			}
			if err := repairCopy(fs, dir, c, w.raw); err != nil {
				l.demote(c, err)
			}
		}
		st := w.st
		scrubReplayState(l.copies)
		return l, st, nil
	}
}

// openCopy opens one WAL copy, reporting whether it had to be created.
func openCopy(fs errfs.FS, path string) (errfs.File, bool, error) {
	f, err := fs.OpenFile(path, os.O_RDWR, 0o644)
	if err == nil {
		return f, false, nil
	}
	if !errors.Is(err, os.ErrNotExist) {
		return nil, false, fmt.Errorf("%w: open %s: %v", ErrStorageLost, path, err)
	}
	f, err = fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, false, fmt.Errorf("%w: create %s: %v", ErrStorageLost, path, err)
	}
	return f, true, nil
}

// finalizeWinner discards the winner's torn tail (if any) and positions
// it for appending. A truncation that actually discarded bytes is itself
// written back durably: file fsync plus directory fsync, so the shrunken
// length survives a crash.
func finalizeWinner(fs errfs.FS, dir string, w *walCopy) error {
	if w.size != w.off {
		if err := w.f.Truncate(w.off); err != nil {
			return fmt.Errorf("truncate torn tail: %w", err)
		}
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("sync torn-tail truncation: %w", err)
		}
		if err := fs.SyncDir(dir); err != nil {
			return fmt.Errorf("sync dir after truncation: %w", err)
		}
	}
	if _, err := w.f.Seek(w.off, io.SeekStart); err != nil {
		return fmt.Errorf("seek: %w", err)
	}
	return nil
}

// repairCopy rewrites a lagging or damaged copy from the winner's intact
// prefix (mirror mode), leaving it positioned for appending.
func repairCopy(fs errfs.FS, dir string, c *walCopy, winnerRaw []byte) error {
	if bytes.Equal(c.raw, winnerRaw) && c.size == int64(len(winnerRaw)) {
		if _, err := c.f.Seek(c.size, io.SeekStart); err != nil {
			return fmt.Errorf("seek: %w", err)
		}
		return nil
	}
	if err := c.f.Truncate(0); err != nil {
		return fmt.Errorf("repair truncate: %w", err)
	}
	if _, err := c.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("repair seek: %w", err)
	}
	if _, err := c.f.Write(winnerRaw); err != nil {
		return fmt.Errorf("repair write: %w", err)
	}
	if err := c.f.Sync(); err != nil {
		return fmt.Errorf("repair sync: %w", err)
	}
	if err := fs.SyncDir(dir); err != nil {
		return fmt.Errorf("repair dir sync: %w", err)
	}
	return nil
}

// vote returns the live copy with the longest intact record prefix
// (lowest index on ties), or nil if none are live.
func (l *Log) vote() *walCopy {
	var best *walCopy
	for _, c := range l.copies {
		if c.dead {
			continue
		}
		if best == nil || c.nrec > best.nrec {
			best = c
		}
	}
	return best
}

// demote marks a copy dead, records the degraded condition, and releases
// the copy's file.
func (l *Log) demote(c *walCopy, err error) {
	if c.dead {
		return
	}
	c.dead, c.err = true, err
	if l.degraded == nil {
		l.degraded = fmt.Errorf("%w: copy %s: %v", ErrStorageDegraded, c.name, err)
	}
	if c.f != nil {
		_ = c.f.Close() // the copy is already being abandoned
		c.f = nil
	}
}

// firstErr returns the first demotion error, for terminal reporting.
func (l *Log) firstErr() error {
	for _, c := range l.copies {
		if c.err != nil {
			return c.err
		}
	}
	return fmt.Errorf("%w: no WAL copy usable", ErrStorageLost)
}

func (l *Log) closeAll() {
	for _, c := range l.copies {
		if c.f != nil {
			_ = c.f.Close() // open is already failing; its error is the story
			c.f = nil
		}
	}
}

// scrubReplayState drops the per-copy replay scratch so the raw prefixes
// don't pin memory for the life of the log.
func scrubReplayState(copies []*walCopy) {
	for _, c := range copies {
		c.st, c.raw = nil, nil
	}
}

// Degraded returns the sticky typed storage condition: nil while every
// copy is healthy, an error wrapping ErrStorageDegraded after any copy
// was demoted (the log keeps appending to the survivors).
func (l *Log) Degraded() error { return l.degraded }

// InspectOptions replays the WAL in dir, over the filesystem and mode o
// names, without keeping it open. A missing or empty WAL yields a zero
// State, not an error. A Close failure is a real error here: Open truncates
// the torn tail in place, and if that write-back cannot be completed the
// reported state may not match the file.
func InspectOptions(dir string, o Options) (*State, error) {
	log, st, err := OpenOptions(dir, o)
	if err != nil {
		return nil, err
	}
	if err := log.Close(); err != nil {
		return nil, fmt.Errorf("checkpoint: inspect close: %w", err)
	}
	return st, nil
}

// replayCopy scans records from the start of f, returning the recovered
// state, the offset just past the last intact record, the intact record
// count, and (when keepRaw) the intact byte prefix for mirror repair.
func replayCopy(f errfs.File, keepRaw bool) (*State, int64, int, []byte, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, 0, nil, fmt.Errorf("%w: seek: %v", ErrStorageLost, err)
	}
	st := &State{}
	var off int64
	nrec := 0
	r := &offsetReader{f: f, record: keepRaw}
	for {
		body, err := readRecord(r)
		if err == errTornTail {
			var raw []byte
			if keepRaw {
				raw = append([]byte(nil), r.raw[:off]...)
			}
			return st, off, nrec, raw, nil
		}
		if err != nil {
			return nil, 0, 0, nil, err
		}
		if err := st.apply(body); err != nil {
			return nil, 0, 0, nil, err
		}
		off = r.off
		nrec++
	}
}

// errTornTail is the internal sentinel for "the file ends mid-record".
var errTornTail = errors.New("torn tail")

// offsetReader tracks how many bytes have been consumed from f and,
// optionally, records them for mirror repair.
type offsetReader struct {
	f      io.Reader
	off    int64
	record bool
	raw    []byte
}

func (r *offsetReader) Read(p []byte) (int, error) {
	n, err := r.f.Read(p)
	r.off += int64(n)
	if r.record && n > 0 {
		r.raw = append(r.raw, p[:n]...)
	}
	return n, err
}

// readRecord reads one framed record. A clean EOF at a record boundary, a
// truncated frame, a garbage length, or a CRC mismatch all surface as
// errTornTail — the caller truncates there. (A CRC mismatch that is *not*
// at the tail is indistinguishable from one that is until the next read;
// since appends are sequential and fsync'd, treating every bad frame as the
// tail is the standard WAL recovery rule — and the mirrored mode's voting
// recovers whatever a single copy's mid-file damage would drop.) A read
// that fails with a real device error — not any flavor of EOF — is storage
// loss, not a tear, and is reported as such.
func readRecord(r io.Reader) ([]byte, error) {
	size, err := wire.ReadUvarint(r)
	if err != nil {
		if isDeviceErr(err) {
			return nil, fmt.Errorf("%w: read: %v", ErrStorageLost, err)
		}
		return nil, errTornTail // EOF at boundary, mid-varint, or garbage
	}
	if size == 0 || size > maxRecord {
		return nil, errTornTail // garbage length: treat as torn
	}
	buf := make([]byte, size+4)
	if _, err := io.ReadFull(r, buf); err != nil {
		if isDeviceErr(err) {
			return nil, fmt.Errorf("%w: read: %v", ErrStorageLost, err)
		}
		return nil, errTornTail
	}
	body, sum := buf[:size], buf[size:]
	want := uint32(sum[0]) | uint32(sum[1])<<8 | uint32(sum[2])<<16 | uint32(sum[3])<<24
	if crc32.Checksum(body, castagnoli) != want {
		return nil, errTornTail
	}
	return body, nil
}

// isDeviceErr distinguishes an I/O failure from running out of bytes.
func isDeviceErr(err error) bool {
	return !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) &&
		!errors.Is(err, wire.ErrFrame)
}

// apply folds one decoded record into the state.
func (st *State) apply(body []byte) error {
	rd := wire.NewReader(body)
	switch kind := rd.Byte(); kind {
	case recMeta:
		st.N = rd.Int()
		st.T = rd.Int()
		if err := rd.Close(); err != nil {
			return fmt.Errorf("%w: meta: %v", ErrCorrupt, err)
		}
		st.HasMeta = true
	case recInstance:
		if st.Partial != nil {
			return fmt.Errorf("%w: instance record inside instance %d", ErrCorrupt, st.Partial.Seq)
		}
		inst := &Instance{}
		inst.Seq = rd.Uvarint()
		inst.Kind = rd.Byte()
		inst.Protocol = string(rd.Bytes())
		inst.Width = rd.Int()
		inst.Input = readBig(rd)
		inst.Diam = readBig(rd)
		inst.Eps = readBig(rd)
		if err := rd.Close(); err != nil {
			return fmt.Errorf("%w: instance: %v", ErrCorrupt, err)
		}
		if inst.Seq != st.Seq {
			return fmt.Errorf("%w: instance %d follows %d completed", ErrCorrupt, inst.Seq, st.Seq)
		}
		st.Partial = inst
	case recRound:
		if st.Partial == nil {
			return fmt.Errorf("%w: round record outside an instance", ErrCorrupt)
		}
		count := rd.Int()
		msgs := make([]transport.Message, 0, count)
		for i := 0; i < count; i++ {
			from := rd.Int()
			// The state outlives body: a resumed session serves these rounds.
			msgs = append(msgs, transport.Message{From: transport.PartyID(from), Payload: bytes.Clone(rd.Bytes())})
		}
		if err := rd.Close(); err != nil {
			return fmt.Errorf("%w: round: %v", ErrCorrupt, err)
		}
		st.Partial.Rounds = append(st.Partial.Rounds, msgs)
		st.NextRound++
	case recEnd:
		if st.Partial == nil {
			return fmt.Errorf("%w: end record outside an instance", ErrCorrupt)
		}
		out := readBig(rd)
		if err := rd.Close(); err != nil {
			return fmt.Errorf("%w: end: %v", ErrCorrupt, err)
		}
		st.Partial.Done = true
		st.Partial.Output = out
		st.Partial = nil // completed instances don't need their rounds
		st.Seq++
	default:
		return fmt.Errorf("%w: unknown record kind %d", ErrCorrupt, kind)
	}
	return nil
}

// append frames one record body, then writes and fsyncs it on every live
// copy. The append is durable if at least one copy accepted it; a copy
// that fails is demoted (the log degrades to the survivors) and only when
// no copy remains does the append itself fail, typed ErrStorageDegraded.
func (l *Log) append(body []byte) error {
	if l.closed {
		return ErrClosed
	}
	w := &l.frame
	w.Reset(w.Finish())
	w.Uvarint(uint64(len(body)))
	w.Raw(body)
	sum := crc32.Checksum(body, castagnoli)
	w.Raw([]byte{byte(sum), byte(sum >> 8), byte(sum >> 16), byte(sum >> 24)})
	frame := w.Finish()
	durable := false
	for _, c := range l.copies {
		if c.dead {
			continue
		}
		if _, err := c.f.Write(frame); err != nil {
			l.demote(c, fmt.Errorf("append: %w", err))
			continue
		}
		if err := c.f.Sync(); err != nil {
			l.demote(c, fmt.Errorf("fsync: %w", err))
			continue
		}
		durable = true
	}
	if !durable {
		return fmt.Errorf("%w: append reached no copy: %v", ErrStorageDegraded, l.firstErr())
	}
	return nil
}

// record starts a record body of the given kind in the body scratch.
func (l *Log) record(kind byte) *wire.Writer {
	w := &l.body
	w.Reset(w.Finish())
	w.Byte(kind)
	return w
}

// AppendMeta records the session geometry. Written once, before the first
// instance.
func (l *Log) AppendMeta(n, t int) error {
	w := l.record(recMeta)
	w.Uvarint(uint64(n))
	w.Uvarint(uint64(t))
	return l.append(w.Finish())
}

// AppendInstance records the start of instance inst (its parameters only;
// rounds follow as they complete).
func (l *Log) AppendInstance(inst *Instance) error {
	w := l.record(recInstance)
	w.Uvarint(inst.Seq)
	w.Byte(inst.Kind)
	w.Bytes([]byte(inst.Protocol))
	w.Uvarint(uint64(inst.Width))
	writeBig(w, inst.Input)
	writeBig(w, inst.Diam)
	writeBig(w, inst.Eps)
	return l.append(w.Finish())
}

// AppendRound records one completed round's delivered inbox.
func (l *Log) AppendRound(msgs []transport.Message) error {
	w := l.record(recRound)
	w.Uvarint(uint64(len(msgs)))
	for _, m := range msgs {
		w.Uvarint(uint64(m.From))
		w.Bytes(m.Payload)
	}
	return l.append(w.Finish())
}

// AppendEnd records the successful completion of the current instance.
func (l *Log) AppendEnd(output *big.Int) error {
	w := l.record(recEnd)
	writeBig(w, output)
	return l.append(w.Finish())
}

// Close releases the files. Records already appended are durable.
func (l *Log) Close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	var first error
	for _, c := range l.copies {
		if c.f == nil {
			continue
		}
		if err := c.f.Close(); err != nil && first == nil {
			first = err
		}
		c.f = nil
	}
	return first
}

// writeBig encodes an optional big.Int as presence/sign byte + magnitude.
func writeBig(w *wire.Writer, v *big.Int) {
	switch {
	case v == nil:
		w.Byte(0)
	case v.Sign() < 0:
		w.Byte(2)
		w.Bytes(v.Bytes())
	default:
		w.Byte(1)
		w.Bytes(v.Bytes())
	}
}

// readBig decodes writeBig's encoding.
func readBig(rd *wire.Reader) *big.Int {
	switch rd.Byte() {
	case 0:
		return nil
	case 2:
		return new(big.Int).Neg(new(big.Int).SetBytes(rd.Bytes()))
	default:
		return new(big.Int).SetBytes(rd.Bytes())
	}
}

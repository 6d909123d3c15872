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
// Record framing (append-only within a slot file, see below):
//
//	uvarint  body length
//	body     (wire-encoded record, first byte is the record kind)
//	4 bytes  CRC-32C of body seeded with the slot's generation, little-endian
//
// Slots. A copy of the log is two slot files, "wal" and "wal.1" ("wal2"
// and "wal2.1" for the mirrored mode's second copy), each holding at most
// one agreement instance. Each slot carries a generation g, and
// generation g lives in slot g mod 2. A log starts at generation 0 in
// "wal", in exactly the format of a log that never switched: a meta
// record, then instances. Every AppendInstance that follows a completed
// instance switches slots: it truncates the other slot and writes a base
// record {g+1, n, t, seq, nextRound} — the whole state the history before
// it recovered to — together with the instance record, as one write and
// one fsync. Open picks the slot with the highest generation whose head
// record is intact and replays only that slot, so recovery reads one
// instance, and the files hold two, whatever the session's length. The
// CRC-32C seed is the generation (0, the plain CRC, for generation 0): a
// crash that loses the truncation but keeps the new head leaves the older
// generation's records behind it, and those never verify as the new
// generation's, so they read as a torn tail.
//
// Replay is torn-write tolerant: a truncated or CRC-damaged tail (the
// record being appended when the process died) is discarded and the file is
// truncated back to the last intact record. Corruption *before* the tail is
// indistinguishable from a tail under sequential scanning, so a single-copy
// log silently keeps the intact prefix — prefix-consistent, never divergent
// — while the mirrored mode recovers the longer prefix from the surviving
// copy and repairs the damaged one.
//
// One read, one vote, one repair. Open and Scrub read the log the same
// way: both slot files of every copy are read whole (a slot holds one
// agreement), scanSlots picks the live slot and walks its CRC frames from
// the bytes, and the live slot's records are replayed; a copy that cannot
// be read, or whose records do not replay, is demoted. Log.vote elects
// the copy with the newest generation and then the longest intact record
// prefix, and Log.settle brings a copy's slot of that generation to the
// winner's intact prefix durably — cutting a torn tail where the slot
// already starts with the prefix, rewriting it otherwise. Open settles
// the winner and then every other copy; Scrub reports what it read and,
// in mirrored mode only, settles every copy the same way.
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
//	base      head of a switched slot: generation, n, t, completed
//	          instances, rounds recorded before the slot
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/big"
	"os"
	"path/filepath"
	"slices"

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
	// Mirror enables the dual-copy WAL ("wal" + "wal2", each with its
	// second slot): appends go to both copies, recovery votes for the longest intact record prefix
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

// WAL copy file names inside the state directory; a copy's second slot
// is its name with slotSuffix.
const (
	walName    = "wal"
	walMirror  = "wal2"
	slotSuffix = ".1"
)

// slotPath names slot i (0 or 1) of the copy whose first slot is path.
func slotPath(path string, i int) string {
	if i == 0 {
		return path
	}
	return path + slotSuffix
}

// CopyFiles lists the files of every WAL copy in dir under mode o, one
// entry per copy holding its two slots in slot order — what a reader that
// compares or archives the raw log must read.
func CopyFiles(dir string, o Options) [][2]string {
	var out [][2]string
	for _, name := range o.copyNames() {
		path := filepath.Join(dir, name)
		out = append(out, [2]string{slotPath(path, 0), slotPath(path, 1)})
	}
	return out
}

// Record kinds (first body byte).
const (
	recMeta     byte = 1
	recInstance byte = 2
	recRound    byte = 3
	recEnd      byte = 4
	recBase     byte = 5
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

// checksum is the CRC-32C of a generation-gen record body. Different seeds
// never give one body the same sum, so a record verifies only under the
// generation it was written in.
func checksum(gen uint64, body []byte) uint32 {
	return crc32.Update(uint32(gen), castagnoli, body)
}

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
	// instances, including those of slots since switched away from — the
	// absolute transport round at which a resumed party goes live (feed it
	// to the transport's resume/rejoin configuration).
	NextRound uint64
	// Partial is the instance the WAL ends inside, nil if the log ends at
	// an instance boundary. Its Rounds are the inboxes to replay.
	Partial *Instance
}

// walCopy is one physical copy of the log: two slot files, of which live
// is the one appended to.
type walCopy struct {
	name  string // first slot's path, for error reporting
	slots [2]errfs.File
	live  int
	dead  bool
	err   error // why the copy was demoted

	// What Open and Scrub read of the copy, dropped once Open returns: the
	// scan of its slot files, the State its live slot replays to, and
	// whether that slot holds an instance record.
	scan slotScan
	st   *State
	used bool
}

// f is the live slot's file.
func (c *walCopy) f() errfs.File { return c.slots[c.live] }

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
	// gen is the live slots' generation; used reports that they hold an
	// instance record, so the next instance switches slots.
	gen  uint64
	used bool
	// st is what a base record restates: the state recorded so far, less
	// the partial instance.
	st State
	// body and frame are the append scratch — the record being encoded and
	// its framed form — and num a natural's bytes, reset for every record
	// instead of reallocated: the single-goroutine contract serialises
	// appends, and a File's Write keeps nothing of what it is handed once it
	// returns.
	body, frame wire.Writer
	num         []byte
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
	if l.openCopies(o.copyNames(), os.O_RDWR|os.O_CREATE) {
		// The slot files' directory entries must themselves be durable:
		// without this fsync a crash right after create loses a file —
		// entry, data, fsyncs and all (verified by the errfs crash-point
		// explorer).
		if err := fs.SyncDir(dir); err != nil {
			l.closeAll()
			return nil, nil, fmt.Errorf("%w: fsync dir %s: %v", ErrStorageLost, dir, err)
		}
	}
	l.readCopies()

	// Settle the winner first, so a winner whose torn tail cannot be cut
	// falls back to the next-best copy instead of losing everything; then
	// repair the other copies from it (mirror mode).
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
		if _, err := l.settle(w, w); err != nil {
			l.demote(w, err)
			continue
		}
		for _, c := range l.copies {
			if c == w || c.dead {
				continue
			}
			if _, err := l.settle(c, w); err != nil {
				l.demote(c, err)
			}
		}
		st := w.st
		l.gen, l.used = w.scan.gen, w.used
		l.st = *st
		l.st.Partial = nil
		for _, c := range l.copies {
			// The slot bytes and replayed states would pin memory for
			// the life of the log.
			c.scan, c.st = slotScan{}, nil
		}
		return l, st, nil
	}
}

// openCopies opens both slot files of every copy names lists, with flag.
// A slot file that does not exist is created when flag has O_CREATE —
// openCopies reports that, and the caller fsyncs the directory — and is
// left absent (nil) otherwise. A copy that cannot be opened is dead.
func (l *Log) openCopies(names []string, flag int) (created bool) {
	for _, name := range names {
		c := &walCopy{name: filepath.Join(l.dir, name)}
		for i := range c.slots {
			f, madeNew, err := openSlot(l.fs, slotPath(c.name, i), flag)
			if err != nil {
				c.dead, c.err = true, err
				_ = c.close() // the copy is unusable; the open error is the story
				break
			}
			c.slots[i] = f
			created = created || madeNew
		}
		l.copies = append(l.copies, c)
	}
	return created
}

// openSlot opens one slot file with flag, creating it (and saying so) when
// it does not exist and flag has O_CREATE; a missing file is otherwise
// nil, not an error.
func openSlot(fs errfs.FS, path string, flag int) (errfs.File, bool, error) {
	f, err := fs.OpenFile(path, flag&^os.O_CREATE, 0o644)
	switch {
	case err == nil:
		return f, false, nil
	case !errors.Is(err, os.ErrNotExist):
		return nil, false, fmt.Errorf("%w: open %s: %v", ErrStorageLost, path, err)
	case flag&os.O_CREATE == 0:
		return nil, false, nil
	}
	f, err = fs.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, false, fmt.Errorf("%w: create %s: %v", ErrStorageLost, path, err)
	}
	return f, true, nil
}

// readCopies reads every live copy — both slot files whole, then the
// live slot's intact records replayed into a State — and demotes a copy
// that cannot be read, or whose records do not replay. A read that fails
// is storage loss, never a torn tail.
func (l *Log) readCopies() {
	for _, c := range l.copies {
		if c.dead {
			continue
		}
		var raws [2][]byte
		for i, f := range c.slots {
			if f == nil {
				continue // absent: an empty slot
			}
			size, err := f.Seek(0, io.SeekEnd)
			if err == nil {
				_, err = f.Seek(0, io.SeekStart)
			}
			if err == nil {
				raws[i] = make([]byte, size)
				_, err = io.ReadFull(f, raws[i]) // leaves the file positioned at its end
			}
			if err != nil {
				l.demote(c, fmt.Errorf("%w: read %s: %v", ErrStorageLost, slotPath(c.name, i), err))
				break
			}
		}
		if c.dead {
			continue
		}
		c.scan = scanSlots(raws)
		c.live = c.scan.live
		var err error
		if c.st, c.used, err = replay(c.scan.bodies); err != nil {
			l.demote(c, err)
		}
	}
}

// replay folds a slot's intact record bodies into a fresh State,
// reporting whether they include an instance record.
func replay(bodies [][]byte) (*State, bool, error) {
	st, used := &State{}, false
	for _, body := range bodies {
		if err := st.apply(body); err != nil {
			return nil, false, err
		}
		used = used || body[0] == recInstance
	}
	return st, used, nil
}

// vote returns the live copy with the newest generation and, within it,
// the longest intact record prefix (lowest index on ties), or nil if none
// are live. It is the one election of a winning copy, Open's and Scrub's.
func (l *Log) vote() *walCopy {
	var best *walCopy
	for _, c := range l.copies {
		if c.dead {
			continue
		}
		if best == nil || c.scan.gen > best.scan.gen ||
			c.scan.gen == best.scan.gen && len(c.scan.bodies) > len(best.scan.bodies) {
			best = c
		}
	}
	return best
}

// settle makes c's slot of the winner w's generation hold exactly w's
// intact record prefix, durably, and leaves it live and positioned for
// appending. A slot that already starts with the prefix — the winner's
// own, or an agreeing copy's — has only what follows cut (a torn tail);
// any other has it rewritten from the prefix: lagging, damaged, a
// generation behind, missing, or unreadable. A cut or rewrite is file-
// and directory-fsync'd, so the new length survives a crash; the
// winner's prefix is never itself rewritten. settle reports whether it
// wrote.
func (l *Log) settle(c, w *walCopy) (bool, error) {
	good := w.scan.raw[:w.scan.intact]
	same := !c.dead && c.live == w.live && bytes.HasPrefix(c.scan.raw, good)
	if same && len(c.scan.raw) == len(good) {
		return false, nil // the read left the file positioned at its end
	}
	keep := int64(0)
	if same {
		keep = w.scan.intact
	}
	if c.dead {
		// Nothing the copy held is trusted, so its other slot must not
		// outrank the rewritten one.
		if err := l.fs.Remove(slotPath(c.name, 1-w.live)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return false, fmt.Errorf("settle remove: %w", err)
		}
	}
	c.live = w.live
	if c.f() == nil {
		f, _, err := openSlot(l.fs, slotPath(c.name, c.live), os.O_RDWR|os.O_CREATE)
		if err != nil {
			return false, err
		}
		c.slots[c.live] = f
	}
	if err := c.f().Truncate(keep); err != nil {
		return false, fmt.Errorf("settle truncate: %w", err)
	}
	if _, err := c.f().Seek(keep, io.SeekStart); err != nil {
		return false, fmt.Errorf("settle seek: %w", err)
	}
	if keep < w.scan.intact {
		if _, err := c.f().Write(good[keep:]); err != nil {
			return false, fmt.Errorf("settle write: %w", err)
		}
	}
	if err := c.f().Sync(); err != nil {
		return false, fmt.Errorf("settle sync: %w", err)
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		return false, fmt.Errorf("settle dir sync: %w", err)
	}
	return true, nil
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
	_ = c.close() // the copy is already being abandoned
}

// close releases the copy's slot files, reporting the first Close error.
func (c *walCopy) close() error {
	var first error
	for i, f := range c.slots {
		if f == nil {
			continue
		}
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
		c.slots[i] = nil
	}
	return first
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

// closeAll releases every copy's files on a path that only read them or
// is already failing.
func (l *Log) closeAll() {
	for _, c := range l.copies {
		_ = c.close() // nothing was written, or the failure is the story
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

// slotScan is what a read of a copy's two slot files found: the live
// slot, its generation, its intact record bodies in order (views of raw),
// the byte length of that intact prefix, and the slot's bytes as read.
type slotScan struct {
	live   int
	gen    uint64
	bodies [][]byte
	intact int64
	raw    []byte
}

// scanSlots is the one rule for which slot of a copy is live: the one
// whose intact head record names the newer generation, slot 0 when
// neither has one (an empty log). raws are the two slot files' bytes,
// nil for an absent file.
func scanSlots(raws [2][]byte) slotScan {
	live := slotScan{raw: raws[0]}
	for i, raw := range raws {
		if s := walkSlot(raw, i); len(s.bodies) > 0 && (len(live.bodies) == 0 || s.gen > live.gen) {
			live = s
		}
	}
	return live
}

// walkSlot walks the CRC frames of slot file raw from the start. The
// first record names the slot's generation — a base record its own, any
// other record 0 — and every record's CRC must be seeded with it; a head
// naming a generation of the other slot is not intact. The walk stops at
// the first frame that is truncated, has a garbage length or fails its
// CRC: from there on the file is a torn tail, which Open cuts. (A CRC
// mismatch that is not at the tail is indistinguishable from one that is;
// since appends are sequential and fsync'd, treating every bad frame as
// the tail is the standard WAL recovery rule — and the mirrored mode's
// voting recovers whatever a single copy's mid-file damage would drop.)
func walkSlot(raw []byte, slot int) slotScan {
	s := slotScan{live: slot, raw: raw}
	for off := 0; ; {
		size, n := binary.Uvarint(raw[off:])
		if n <= 0 || size == 0 || size > maxRecord || uint64(len(raw)-off-n) < size+4 {
			return s
		}
		body := raw[off+n : off+n+int(size)]
		off += n + int(size) + 4
		gen := s.gen
		if len(s.bodies) == 0 {
			gen = headGen(body)
		}
		if gen%2 != uint64(slot) || checksum(gen, body) != binary.LittleEndian.Uint32(raw[off-4:]) {
			return s
		}
		s.gen, s.intact = gen, int64(off)
		s.bodies = append(s.bodies, body)
	}
}

// headGen is the generation a slot's first record names: a base record's
// own, 0 for any other record.
func headGen(body []byte) uint64 {
	if body[0] != recBase {
		return 0
	}
	return wire.NewReader(body[1:]).Uvarint()
}

// apply folds one decoded record into the state.
func (st *State) apply(body []byte) error {
	rd := wire.NewReader(body)
	switch kind := rd.Byte(); kind {
	case recBase:
		if st.HasMeta || st.Seq != 0 || st.NextRound != 0 || st.Partial != nil {
			return fmt.Errorf("%w: base record after the head of its slot", ErrCorrupt)
		}
		rd.Uvarint() // the generation, read by walkSlot
		st.N = rd.Int()
		st.T = rd.Int()
		st.Seq = rd.Uvarint()
		st.NextRound = rd.Uvarint()
		if err := rd.Close(); err != nil {
			return fmt.Errorf("%w: base: %v", ErrCorrupt, err)
		}
		st.HasMeta = true
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
			// The state outlives body, and a resumed session serves these
			// rounds: the payload is a view of the slot bytes readCopies
			// read for this open alone, which nothing writes to.
			msgs = append(msgs, transport.Message{From: transport.PartyID(from), Payload: rd.Bytes()})
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

// seal frames the record body in the body scratch onto the frame scratch,
// under the live generation.
func (l *Log) seal() {
	body := l.body.Finish()
	w := &l.frame
	w.Uvarint(uint64(len(body)))
	w.Raw(body)
	sum := checksum(l.gen, body)
	w.Raw([]byte{byte(sum), byte(sum >> 8), byte(sum >> 16), byte(sum >> 24)})
}

// append writes the records sealed since the last append and fsyncs them
// on every live copy, after emptying the copy's live slot when switched
// is set (the slot switch of AppendInstance). The append is durable if at
// least one copy accepted it; a copy that fails is demoted (the log
// degrades to the survivors) and only when no copy remains does the
// append itself fail, typed ErrStorageDegraded.
func (l *Log) append(switched bool) error {
	frame := l.frame.Finish()
	l.frame.Reset(frame)
	durable := false
	for _, c := range l.copies {
		if c.dead {
			continue
		}
		if switched {
			c.live = int(l.gen % 2)
			if err := c.f().Truncate(0); err != nil {
				l.demote(c, fmt.Errorf("switch truncate: %w", err))
				continue
			}
			if _, err := c.f().Seek(0, io.SeekStart); err != nil {
				l.demote(c, fmt.Errorf("switch seek: %w", err))
				continue
			}
		}
		if _, err := c.f().Write(frame); err != nil {
			l.demote(c, fmt.Errorf("append: %w", err))
			continue
		}
		if err := c.f().Sync(); err != nil {
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

// appendOne seals the record in the body scratch and appends it alone.
func (l *Log) appendOne() error {
	if l.closed {
		return ErrClosed
	}
	l.seal()
	return l.append(false)
}

// AppendMeta records the session geometry. Written once, before the first
// instance.
func (l *Log) AppendMeta(n, t int) error {
	w := l.record(recMeta)
	w.Uvarint(uint64(n))
	w.Uvarint(uint64(t))
	l.st.HasMeta, l.st.N, l.st.T = true, n, t
	return l.appendOne()
}

// AppendInstance records the start of instance inst (its parameters only;
// rounds follow as they complete). When the live slots already hold an
// instance, and the log has its meta record to restate, it switches slots:
// the base record and the instance record go to the other slot, emptied
// first, as one write and one fsync.
func (l *Log) AppendInstance(inst *Instance) error {
	if l.closed {
		return ErrClosed
	}
	switched := l.used && l.st.HasMeta
	if switched {
		l.gen++
		w := l.record(recBase)
		w.Uvarint(l.gen)
		w.Uvarint(uint64(l.st.N))
		w.Uvarint(uint64(l.st.T))
		w.Uvarint(l.st.Seq)
		w.Uvarint(l.st.NextRound)
		l.seal()
	}
	w := l.record(recInstance)
	w.Uvarint(inst.Seq)
	w.Byte(inst.Kind)
	w.Bytes([]byte(inst.Protocol))
	w.Uvarint(uint64(inst.Width))
	l.writeBig(w, inst.Input)
	l.writeBig(w, inst.Diam)
	l.writeBig(w, inst.Eps)
	l.seal()
	l.used = true
	return l.append(switched)
}

// AppendRound records one completed round's delivered inbox.
func (l *Log) AppendRound(msgs []transport.Message) error {
	w := l.record(recRound)
	w.Uvarint(uint64(len(msgs)))
	for _, m := range msgs {
		w.Uvarint(uint64(m.From))
		w.Bytes(m.Payload)
	}
	l.st.NextRound++
	return l.appendOne()
}

// AppendEnd records the successful completion of the current instance.
func (l *Log) AppendEnd(output *big.Int) error {
	w := l.record(recEnd)
	l.writeBig(w, output)
	l.st.Seq++
	return l.appendOne()
}

// Close releases the files. Records already appended are durable.
func (l *Log) Close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	var first error
	for _, c := range l.copies {
		if err := c.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// writeBig encodes an optional big.Int as presence/sign byte + magnitude,
// the magnitude's big-endian bytes staged in l.num.
func (l *Log) writeBig(w *wire.Writer, v *big.Int) {
	switch {
	case v == nil:
		w.Byte(0)
		return
	case v.Sign() < 0:
		w.Byte(2)
	default:
		w.Byte(1)
	}
	n := (v.BitLen() + 7) / 8
	l.num = v.FillBytes(slices.Grow(l.num[:0], n)[:n])
	w.Bytes(l.num)
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

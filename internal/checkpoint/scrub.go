package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"convexagreement/internal/errfs"
)

// CopyReport is the scrub verdict for one physical WAL copy, read from
// both of its slot files and reported for its live slot: the one holding
// the newest generation whose head record is intact (the first slot when
// neither does), which is all Open replays. The other slot holds an older
// generation that the next slot switch truncates; scrub neither counts
// nor repairs it.
type CopyReport struct {
	// Name is the live slot's path.
	Name string
	// Present reports whether the live slot's file exists.
	Present bool
	// Gen is the live slot's generation.
	Gen uint64
	// Records is the number of intact CRC-verified records.
	Records int
	// IntactBytes is the byte length of the intact record prefix.
	IntactBytes int64
	// TotalBytes is the file size; TotalBytes > IntactBytes means the
	// copy carries damaged or torn bytes past its intact prefix.
	TotalBytes int64
	// Repaired reports that this copy was rewritten from the voting
	// winner (mirrored mode only).
	Repaired bool
	// Err is a per-copy failure (open, read, or repair), empty if none.
	Err string
}

// Damaged reports whether the copy needs attention: missing, carrying
// bytes beyond its intact prefix, or erroring.
func (c *CopyReport) Damaged() bool {
	return !c.Present || c.TotalBytes > c.IntactBytes || c.Err != ""
}

// ScrubReport summarizes a full-log CRC verification pass.
type ScrubReport struct {
	// Copies holds one verdict per physical copy, in vote-priority order.
	Copies []CopyReport
	// Records is the winning copy's intact record count in its live slot
	// — what Open would replay.
	Records int
	// Repaired reports that at least one copy was rewritten.
	Repaired bool
}

// String renders the report for operator logs.
func (r *ScrubReport) String() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "scrub: %d records", r.Records)
	for i := range r.Copies {
		c := &r.Copies[i]
		fmt.Fprintf(&b, "; %s:", filepath.Base(c.Name))
		switch {
		case !c.Present:
			b.WriteString(" missing")
		case c.Err != "":
			fmt.Fprintf(&b, " error(%s)", c.Err)
		default:
			fmt.Fprintf(&b, " %d/%d bytes intact (%d records)", c.IntactBytes, c.TotalBytes, c.Records)
		}
		if c.Repaired {
			b.WriteString(" repaired")
		}
	}
	return b.String()
}

// Scrub walks every WAL copy in dir verifying CRC frames end to end and
// reports what it found. On the real filesystem in single-copy mode it is
// read-only: damage is reported, not touched (Open's torn-tail rule is the
// only mutation path). See ScrubOptions for the mirrored mode, which
// additionally repairs.
func Scrub(dir string) (*ScrubReport, error) { return ScrubOptions(dir, Options{}) }

// ScrubOptions is Scrub over an explicit filesystem and mode. In mirrored
// mode it repairs: the copy with the newest generation and, within it, the
// longest intact record prefix wins the vote, and every copy whose slot of
// that generation differs from that prefix — lagging, bit-rotted, torn,
// a generation behind, missing entirely, or the winner's own damaged tail
// — has it rewritten to the prefix and fsync'd (directory included).
// Repair reads only CRC-verified records, so detected damage never
// propagates into the repaired copy; a second pass over an
// already-repaired log is a no-op.
func ScrubOptions(dir string, o Options) (*ScrubReport, error) {
	fsys := o.fs()
	rep := &ScrubReport{}
	var paths []string
	var scans []slotRead
	for _, name := range o.copyNames() {
		path := filepath.Join(dir, name)
		cr, sc := scrubCopy(fsys, path)
		paths = append(paths, path)
		scans = append(scans, sc)
		rep.Copies = append(rep.Copies, cr)
	}

	// Vote: newest generation, then longest intact prefix, wins; lowest
	// index on ties.
	win := -1
	for i := range rep.Copies {
		if !scans[i].ok {
			continue
		}
		c, w := &rep.Copies[i], &rep.Copies[max(win, 0)]
		if win < 0 || c.Gen > w.Gen || c.Gen == w.Gen && c.Records > w.Records {
			win = i
		}
	}
	if win < 0 {
		return rep, nil // nothing readable; nothing to repair from
	}
	rep.Records = rep.Copies[win].Records
	if !o.Mirror {
		return rep, nil
	}

	// Normalize every copy's slot of the winning generation — the
	// winner's own damaged tail included — to the winning intact prefix.
	// (The tail is not CRC-intact by definition, so Open would discard it
	// anyway; trimming it here keeps the pass idempotent: a repaired
	// directory re-scrubs as a no-op.)
	good, slot := scans[win].raw[:rep.Copies[win].IntactBytes], scans[win].slot
	for i := range rep.Copies {
		cr, sc := &rep.Copies[i], scans[i]
		if sc.ok && sc.slot == slot && cr.TotalBytes == int64(len(good)) && bytes.Equal(sc.raw, good) {
			continue
		}
		name := slotPath(paths[i], slot)
		if err := rewriteCopy(fsys, dir, name, good); err != nil {
			cr.Err = err.Error()
			continue
		}
		*cr = CopyReport{
			Name: name, Present: true, Gen: rep.Copies[win].Gen,
			Records: rep.Records, IntactBytes: int64(len(good)), TotalBytes: int64(len(good)),
			Repaired: true,
		}
		rep.Repaired = true
	}
	return rep, nil
}

// slotRead is what scrub read of one copy's live slot.
type slotRead struct {
	raw  []byte // full file contents as read
	ok   bool   // both slots opened (or were absent) and read successfully
	slot int
}

// scrubCopy reads both slots of the copy whose first slot is path and
// reports its live slot.
func scrubCopy(fsys errfs.FS, path string) (CopyReport, slotRead) {
	var raws [2][]byte
	var present [2]bool
	live, found := 0, false
	var cr CopyReport
	for i := range raws {
		raw, err := readAll(fsys, slotPath(path, i))
		switch {
		case errors.Is(err, fs.ErrNotExist):
			// Absent slot: a repair target in mirror mode if it is the one
			// the winner's generation lives in.
			continue
		case err != nil:
			return CopyReport{Name: slotPath(path, i), Present: true, Err: err.Error()}, slotRead{}
		}
		raws[i], present[i] = raw, true
		records, intact, gen := walkFrames(raw, i)
		if records > 0 && (!found || gen > cr.Gen) {
			live, found = i, true
			cr = CopyReport{Gen: gen, Records: records, IntactBytes: intact}
		}
	}
	cr.Name = slotPath(path, live)
	cr.Present = present[live]
	cr.TotalBytes = int64(len(raws[live]))
	return cr, slotRead{raw: raws[live], ok: true, slot: live}
}

// walkFrames counts the intact CRC frames of slot file buf, the byte
// length of the intact prefix, and the slot's generation. Scanning stops
// at the first damaged frame, exactly as replay would.
func walkFrames(buf []byte, slot int) (records int, intact int64, gen uint64) {
	sc := slotScan{r: &offsetReader{f: bytes.NewReader(buf)}, slot: slot}
	for {
		//calint:ignore errflow any decode error, typed or not, just marks the end of the intact prefix; the scrubber classifies damage from the counts
		if _, err := sc.next(); err != nil {
			return sc.nrec, sc.end, sc.gen
		}
	}
}

// readAll slurps one file through the seam.
func readAll(fsys errfs.FS, path string) ([]byte, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return raw, nil
}

// rewriteCopy replaces path's contents with good, durably.
func rewriteCopy(fsys errfs.FS, dir, path string, good []byte) error {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("repair open: %w", err)
	}
	if _, err := f.Write(good); err != nil {
		_ = f.Close() // the write error is the story
		return fmt.Errorf("repair write: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close() // the sync error is the story
		return fmt.Errorf("repair sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("repair close: %w", err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("repair dir sync: %w", err)
	}
	return nil
}

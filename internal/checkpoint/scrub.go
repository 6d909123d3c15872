package checkpoint

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
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
	// Repaired reports that this copy's slot was cut or rewritten to the
	// voting winner's intact prefix (mirrored mode only).
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

// Scrub reads every WAL copy in dir the way Open does — both slot files,
// the live slot's CRC frames walked and its records replayed — and reports
// what it found. In single-copy mode it is read-only: damage is reported,
// not touched (Open's torn-tail rule is the only mutation path). See
// ScrubOptions for the mirrored mode, which additionally repairs.
func Scrub(dir string) (*ScrubReport, error) { return ScrubOptions(dir, Options{}) }

// ScrubOptions is Scrub over an explicit filesystem and mode. Its winner
// is Open's: the copy with the newest generation and, within it, the
// longest intact record prefix, among the copies that read and replay. In
// mirrored mode it repairs as Open does: every copy whose slot of that
// generation differs from that prefix — lagging, bit-rotted, torn, a
// generation behind, missing entirely, unreadable, or the winner's own
// damaged tail — has it cut or rewritten to the prefix and fsync'd
// (directory included). Repair writes only CRC-verified records, so
// detected damage never propagates into the repaired copy; a second pass
// over an already-repaired log is a no-op.
func ScrubOptions(dir string, o Options) (*ScrubReport, error) {
	flag := os.O_RDONLY
	if o.Mirror {
		flag = os.O_RDWR
	}
	l := &Log{fs: o.fs(), dir: dir}
	defer l.closeAll()
	l.openCopies(o.copyNames(), flag)
	l.readCopies()
	rep := &ScrubReport{}
	for _, c := range l.copies {
		rep.Copies = append(rep.Copies, c.report())
	}
	w := l.vote()
	if w == nil {
		return rep, nil // nothing readable; nothing to repair from
	}
	rep.Records = len(w.scan.bodies)
	if !o.Mirror {
		return rep, nil
	}
	for i, c := range l.copies {
		wrote, err := l.settle(c, w)
		if err == nil {
			err = c.close()
		}
		if err != nil {
			rep.Copies[i].Err = err.Error()
			continue
		}
		if wrote {
			rep.Copies[i] = CopyReport{
				Name: slotPath(c.name, c.live), Present: true, Gen: w.scan.gen,
				Records: rep.Records, IntactBytes: w.scan.intact, TotalBytes: w.scan.intact,
				Repaired: true,
			}
			rep.Repaired = true
		}
	}
	return rep, nil
}

// report is the copy's verdict as read. A copy that could not be opened
// or read counts as present: its error is the finding.
func (c *walCopy) report() CopyReport {
	r := CopyReport{
		Name: slotPath(c.name, c.live), Present: c.err != nil || c.f() != nil,
		Gen: c.scan.gen, Records: len(c.scan.bodies),
		IntactBytes: c.scan.intact, TotalBytes: int64(len(c.scan.raw)),
	}
	if c.err != nil {
		r.Err = c.err.Error()
	}
	return r
}

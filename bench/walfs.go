package main

import (
	"io"
	"io/fs"
	"os"
	"time"

	"convexagreement/internal/errfs"
)

// fsyncCost is the modelled cost of one fsync. On durable_seq the WAL goes
// to a modelled device: a write lands in memory and a Sync sleeps fsyncCost.
// The benchmark may only write inside its checkout, on the sandbox's shared
// disk, and that disk is the one layer under this workload that the
// program does not own. A real fsync there cost 0.3 ms at the median and
// 1–9 ms in the tail, differently on every run (spread of the p90 latency
// 0.21). Real files without fsync still stalled in write(2) whenever a
// neighbour kept the disk busy: with one process writing and fsyncing
// 8 MiB blocks next to the benchmark, ten runs spread by 0.24 on the p50
// and 0.40 on the p90, against 0.05 and 0.04 alone, and the driver's host
// refused the p90 at 0.35. The write(2) calls themselves were 0.9 ms of a
// 400 ms agreement, so the model gives up nothing that shows. With it,
// durable_seq is the WAL's append+fsync discipline on a device whose flush
// takes 1 ms: a change that issues fewer or batched fsyncs shows, one
// millisecond at a time. What this host's disk really costs is the
// checkpoint.append_round_us and checkpoint.real_fsync_us probes.
const fsyncCost = time.Millisecond

// walFS is the errfs.FS seam one party's Session checkpoints through on
// durable_seq: files held in memory, every Sync replaced by the model, and
// every Write and Sync recorded as a span while cur is set. It serves one
// party, whose driver goroutine is the only one to call it.
type walFS struct {
	files map[string]*[]byte
	tr    *tracer
	cur   *agreementTrace
}

var _ errfs.FS = (*walFS)(nil)

func (*walFS) MkdirAll(string, os.FileMode) error { return nil }
func (*walFS) SyncDir(string) error               { return nil }

func (wfs *walFS) Remove(name string) error {
	delete(wfs.files, name)
	return nil
}

func (wfs *walFS) OpenFile(name string, flag int, _ os.FileMode) (errfs.File, error) {
	data, ok := wfs.files[name]
	switch {
	case !ok && flag&os.O_CREATE == 0:
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	case !ok:
		if wfs.files == nil {
			wfs.files = map[string]*[]byte{}
		}
		data = new([]byte)
		wfs.files[name] = data
	case flag&os.O_TRUNC != 0:
		*data = (*data)[:0]
	}
	return &walFile{fs: wfs, data: data}, nil
}

// walFile is one open handle: a position in the file's bytes.
type walFile struct {
	fs   *walFS
	data *[]byte
	pos  int64
}

func (f *walFile) Read(p []byte) (int, error) {
	if f.pos >= int64(len(*f.data)) {
		return 0, io.EOF
	}
	n := copy(p, (*f.data)[f.pos:])
	f.pos += int64(n)
	return n, nil
}

func (f *walFile) Seek(offset int64, whence int) (int64, error) {
	switch whence {
	case io.SeekCurrent:
		offset += f.pos
	case io.SeekEnd:
		offset += int64(len(*f.data))
	}
	if offset < 0 {
		return 0, fs.ErrInvalid
	}
	f.pos = offset
	return offset, nil
}

func (f *walFile) Truncate(size int64) error {
	if grow := size - int64(len(*f.data)); grow > 0 {
		*f.data = append(*f.data, make([]byte, grow)...)
	}
	*f.data = (*f.data)[:size]
	return nil
}

func (f *walFile) Close() error { return nil }

// write stores p at the handle's position, growing the file as needed.
func (f *walFile) write(p []byte) (int, error) {
	if end := f.pos + int64(len(p)); end > int64(len(*f.data)) {
		if err := f.Truncate(end); err != nil {
			return 0, err
		}
	}
	f.pos += int64(copy((*f.data)[f.pos:], p))
	return len(p), nil
}

func (f *walFile) Write(p []byte) (int, error) {
	at := f.fs.cur
	if at == nil {
		return f.write(p)
	}
	sp := fsSpan{start: f.fs.tr.offset()}
	n, err := f.write(p)
	sp.end, sp.bytes = f.fs.tr.offset(), n
	at.fs = append(at.fs, sp)
	return n, err
}

func (f *walFile) Sync() error {
	at := f.fs.cur
	if at == nil {
		sleep(fsyncCost)
		return nil
	}
	sp := fsSpan{sync: true, start: f.fs.tr.offset()}
	sleep(fsyncCost)
	sp.end = f.fs.tr.offset()
	at.fs = append(at.fs, sp)
	return nil
}

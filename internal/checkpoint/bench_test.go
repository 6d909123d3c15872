package checkpoint

import (
	"math/big"
	"testing"

	"convexagreement/internal/errfs"
	"convexagreement/internal/transport"
)

// benchRound is a realistic n=7 round inbox: 64-byte payloads, the wide
// end of the paper's O(log D) iteration messages.
func benchRound() []transport.Message {
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(i)
	}
	msgs := make([]transport.Message, 7)
	for i := range msgs {
		msgs[i] = transport.Message{From: transport.PartyID(i), Payload: payload}
	}
	return msgs
}

// BenchmarkWALAppend measures the default-filesystem (OS) append path:
// frame encode + write + fsync per round. The allocs/op number is the
// CI-guarded contract that the errfs seam stays free on the hot path —
// *os.File satisfies errfs.File directly, no wrapper, no indirection
// allocations.
func BenchmarkWALAppend(b *testing.B) {
	dir := b.TempDir()
	log, _, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = log.Close() }()
	if err := log.AppendMeta(7, 2); err != nil {
		b.Fatal(err)
	}
	if err := log.AppendInstance(&Instance{Kind: KindAgree, Protocol: "midpoint", Width: 8, Input: big.NewInt(42)}); err != nil {
		b.Fatal(err)
	}
	msgs := benchRound()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := log.AppendRound(msgs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALAppendMirror is the same round append on the dual WAL:
// the redundancy price is two writes and two fsyncs per record.
func BenchmarkWALAppendMirror(b *testing.B) {
	dir := b.TempDir()
	log, _, err := OpenOptions(dir, Options{Mirror: true})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = log.Close() }()
	if err := log.AppendMeta(7, 2); err != nil {
		b.Fatal(err)
	}
	msgs := benchRound()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := log.AppendRound(msgs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALAppendMem isolates the CPU cost of the append path from
// disk latency by running on the in-memory filesystem with no faults.
func BenchmarkWALAppendMem(b *testing.B) {
	m := errfs.NewMem(errfs.Faults{})
	log, _, err := OpenOptions("state", Options{FS: m})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = log.Close() }()
	msgs := benchRound()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := log.AppendRound(msgs); err != nil {
			b.Fatal(err)
		}
	}
}

// populated writes a log holding one instance of 1000 recorded rounds to
// a fresh in-memory filesystem, single copy or mirrored, and returns the
// options that open it. It has 1002 records: meta, instance, rounds.
func populated(b *testing.B, mirror bool) Options {
	b.Helper()
	o := Options{FS: errfs.NewMem(errfs.Faults{}), Mirror: mirror}
	log, _, err := OpenOptions("state", o)
	if err != nil {
		b.Fatal(err)
	}
	if err := log.AppendMeta(7, 2); err != nil {
		b.Fatal(err)
	}
	if err := log.AppendInstance(&Instance{Kind: KindAgree, Protocol: "optimal", Width: 64, Input: big.NewInt(42)}); err != nil {
		b.Fatal(err)
	}
	msgs := benchRound()
	for i := 0; i < 1000; i++ {
		if err := log.AppendRound(msgs); err != nil {
			b.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		b.Fatal(err)
	}
	return o
}

// BenchmarkScrub measures the full-log verification pass over a
// 1000-round mirrored WAL.
func BenchmarkScrub(b *testing.B) {
	o := populated(b, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := ScrubOptions("state", o)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Records != 1002 {
			b.Fatalf("scrub saw %d records", rep.Records)
		}
	}
}

// BenchmarkWALInstanceSwitch measures one agreement's bookkeeping around
// its rounds on the default filesystem: the end record, then the next
// instance, which switches slots — a truncation, and the base and
// instance records as one write and one fsync. Its allocs/op is
// CI-guarded at 0, like BenchmarkWALAppend's: a switch that allocates
// (a natural's bytes, a frame) shows here.
func BenchmarkWALInstanceSwitch(b *testing.B) {
	dir := b.TempDir()
	log, _, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = log.Close() }()
	if err := log.AppendMeta(7, 2); err != nil {
		b.Fatal(err)
	}
	inst := &Instance{Kind: KindAgree, Protocol: "optimal", Width: 64, Input: big.NewInt(-1 << 40)}
	if err := log.AppendInstance(inst); err != nil {
		b.Fatal(err)
	}
	out := big.NewInt(1 << 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := log.AppendEnd(out); err != nil {
			b.Fatal(err)
		}
		inst.Seq++
		if err := log.AppendInstance(inst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpenReplay measures Open on a populated log: one instance of
// 1000 recorded rounds read back and applied, single copy and mirrored,
// on the in-memory filesystem. A reopen writes nothing, so every
// iteration reads the same files.
func BenchmarkOpenReplay(b *testing.B) {
	for _, mirror := range []bool{false, true} {
		name := "single"
		if mirror {
			name = "mirror"
		}
		b.Run(name, func(b *testing.B) {
			o := populated(b, mirror)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				log, st, err := OpenOptions("state", o)
				if err != nil {
					b.Fatal(err)
				}
				if st.NextRound != 1000 || st.Partial == nil {
					b.Fatalf("reopened at round %d", st.NextRound)
				}
				if err := log.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

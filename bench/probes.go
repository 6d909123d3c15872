package main

import (
	"bytes"
	"fmt"
	"math/big"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"convexagreement/internal/baplus"
	"convexagreement/internal/bitstr"
	"convexagreement/internal/channet"
	"convexagreement/internal/checkpoint"
	"convexagreement/internal/gf16"
	"convexagreement/internal/hashing"
	"convexagreement/internal/merkle"
	"convexagreement/internal/rs"
	"convexagreement/internal/sessmux"
	"convexagreement/internal/tcpnet"
	"convexagreement/internal/transport"
	"convexagreement/internal/wire"
)

// The probes are direct timed calls into the public functions of internal
// packages, at the sizes the workloads use them. They do not depend on the
// workload or the seed; every traced run repeats them, so a layer's line
// in the ledger can be read next to the end-to-end run it explains.

// probeSizes scales the probes. Tests shrink them.
type probeSizes struct {
	budget  time.Duration // time each probe may spend repeating its operation
	bits    int           // bitstr operand length
	payload int           // rs / hashing / baplus.Long payload bytes
	rounds  int           // rounds per transport probe
	live    int           // concurrent sessions in the sessmux probe
}

var fullProbes = probeSizes{budget: 80 * time.Millisecond, bits: 1 << 22, payload: 256 << 10, rounds: 200, live: 64}

// medianOf repeats op until budget is spent (at least three times) and
// returns the median duration of one call.
func medianOf(budget time.Duration, op func()) time.Duration {
	var d []float64
	for start := now(); len(d) < 3 || since(start) < budget; {
		t := now()
		op()
		d = append(d, float64(since(t)))
	}
	return time.Duration(median(d))
}

func mbPerS(bytes int, d time.Duration) float64 {
	return float64(bytes) / 1e6 / d.Seconds()
}

// runProbes measures every probe metric. dir is a scratch directory inside
// the benchmark's output directory, for the two that touch the disk.
func runProbes(sz probeSizes, dir string) (map[string]float64, error) {
	m := map[string]float64{}
	rng := rand.New(rand.NewSource(1))
	if err := probeBitstr(m, sz, rng); err != nil {
		return nil, fmt.Errorf("bitstr probe: %w", err)
	}
	if err := probeCodec(m, sz, rng); err != nil {
		return nil, fmt.Errorf("codec probe: %w", err)
	}
	if err := probeWire(m, sz, rng); err != nil {
		return nil, fmt.Errorf("wire probe: %w", err)
	}
	if err := probeTransports(m, sz); err != nil {
		return nil, fmt.Errorf("transport probe: %w", err)
	}
	if err := probeCheckpoint(m, sz, dir); err != nil {
		return nil, fmt.Errorf("checkpoint probe: %w", err)
	}
	return m, nil
}

func probeBitstr(m map[string]float64, sz probeSizes, rng *rand.Rand) error {
	v := randomBits(rng, sz.bits)
	s, err := bitstr.FromBig(v, sz.bits)
	if err != nil {
		return err
	}
	// Equal up to the last bit: Compare has to walk the whole string.
	other, err := bitstr.FromBig(new(big.Int).Xor(v, big.NewInt(1)), sz.bits)
	if err != nil {
		return err
	}
	var sink int
	m["bitstr.frombig_ms"] = ms(medianOf(sz.budget, func() {
		t, _ := bitstr.FromBig(v, sz.bits) // same operands as the checked call above
		sink += t.Len()
	}))
	m["bitstr.slice_ms"] = ms(medianOf(sz.budget, func() {
		t, _ := s.Slice(sz.bits/4+1, 3*sz.bits/4) // in range by construction; +1 keeps it off a byte boundary
		sink += t.Len()
	}))
	m["bitstr.big_ms"] = ms(medianOf(sz.budget, func() { sink += s.Big().BitLen() }))
	m["bitstr.compare_ms"] = ms(medianOf(sz.budget, func() { sink += s.Compare(other) }))
	if sink == 0 {
		return fmt.Errorf("operations produced nothing")
	}
	return nil
}

func probeCodec(m map[string]float64, sz probeSizes, rng *rand.Rand) error {
	const n, k = 7, 5 // long_input's codec: n parties, n − t data shares
	payload := make([]byte, sz.payload)
	rng.Read(payload)
	codec, err := rs.NewCodec(n, k)
	if err != nil {
		return err
	}
	shares, err := codec.Encode(payload)
	if err != nil {
		return err
	}
	// Decode from the last k shares, so two data shares are really missing.
	got, err := codec.Decode(shares[n-k:])
	if err != nil {
		return err
	}
	if !bytes.Equal(got, payload) {
		return fmt.Errorf("rs round trip changed the payload")
	}
	m["rs.encode_mb_s"] = mbPerS(len(payload), medianOf(sz.budget, func() {
		_, _ = codec.Encode(payload) // same payload as the checked call above
	}))
	m["rs.decode_mb_s"] = mbPerS(len(payload), medianOf(sz.budget, func() {
		_, _ = codec.Decode(shares[n-k:]) // same shares as the checked call above
	}))

	// One fused matrix row over k columns of the share's symbol count: the
	// innermost kernel of both Encode and Decode.
	symbols := (len(shares[0].Data)/2 + 31) &^ 31
	tabs := make([]gf16.MulTable, k)
	for j := range tabs {
		gf16.MakeMulTable(gf16.Elem(j+2), &tabs[j])
	}
	colsLo, colsHi := make([]byte, k*symbols), make([]byte, k*symbols)
	rng.Read(colsLo)
	rng.Read(colsHi)
	dstLo, dstHi := make([]byte, symbols), make([]byte, symbols)
	m["gf16.dotwords_mb_s"] = mbPerS(2*k*symbols, medianOf(sz.budget, func() {
		gf16.DotWords(tabs, dstLo, dstHi, colsLo, colsHi, symbols)
	}))

	leaves := make([][]byte, n)
	for i, sh := range shares {
		leaves[i] = sh.Data
	}
	tree, err := merkle.Build(leaves)
	if err != nil {
		return err
	}
	witness, err := tree.Witness(3)
	if err != nil {
		return err
	}
	if !merkle.Verify(tree.Root(), 3, n, leaves[3], witness) {
		return fmt.Errorf("merkle witness does not verify")
	}
	m["merkle.build_us"] = us(medianOf(sz.budget, func() {
		_, _ = merkle.Build(leaves) // same leaves as the checked call above
	}))
	m["merkle.verify_us"] = us(medianOf(sz.budget, func() {
		merkle.Verify(tree.Root(), 3, n, leaves[3], witness)
	}))
	m["hashing.sum_mb_s"] = mbPerS(len(payload), medianOf(sz.budget, func() { hashing.Sum(payload) }))

	// Π_ℓBA+ end to end on a common input, n = 7 over the channel hub.
	var longErr error
	m["baplus.long_ms"] = ms(medianOf(sz.budget, func() {
		hub, err := channet.NewHub(n, (n-1)/3)
		if err != nil {
			longErr = err
			return
		}
		fns := make([]func(transport.Net) error, n)
		for i := range fns {
			fns[i] = func(net transport.Net) error {
				out, ok, err := baplus.Long(net, "probe", payload)
				if err == nil && (!ok || !bytes.Equal(out, payload)) {
					err = fmt.Errorf("baplus.Long lost the common input")
				}
				return err
			}
		}
		if err := hub.Run(fns); err != nil {
			longErr = err
		}
	}))
	return longErr
}

func probeWire(m map[string]float64, sz probeSizes, rng *rand.Rand) error {
	// The path a default (rejoin on, copying reads) TCP round takes: the
	// arena's flat encoder on the way out, ReadFrame on the way in.
	var arena wire.Arena
	var probeErr error
	roundTrip := func(payloads [][]byte) func() {
		rd := bytes.NewReader(nil)
		return func() {
			f := arena.EncodeFrame(7, payloads)
			rd.Reset(f.Bytes())
			if _, got, err := wire.ReadFrame(rd, 1<<26); err != nil || len(got) != len(payloads) {
				probeErr = fmt.Errorf("frame round trip: %d payloads, err %v", len(got), err)
			}
			f.Release()
		}
	}
	small, large := make([]byte, 64), make([]byte, 64<<10)
	rng.Read(small)
	rng.Read(large)
	// Frames this small are timed in batches: one clock read per frame
	// would be a third of the measurement.
	const batch = 1000
	one := roundTrip([][]byte{small})
	m["wire.frame_roundtrip_ns"] = float64(medianOf(sz.budget, func() {
		for i := 0; i < batch; i++ {
			one()
		}
	})) / batch
	m["wire.frame_roundtrip_mb_s"] = mbPerS(len(large), medianOf(sz.budget, roundTrip([][]byte{large})))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < batch; i++ {
		one()
	}
	runtime.ReadMemStats(&after)
	m["wire.allocs_per_frame"] = float64(after.Mallocs-before.Mallocs) / batch
	return probeErr
}

// timeRounds drives rounds lock-step rounds on every net at once, each
// party broadcasting one byte, and returns party 0's median round time.
func timeRounds(nets []transport.Net, rounds int) (time.Duration, error) {
	errs := make([]error, len(nets))
	var d []float64
	var wg sync.WaitGroup
	for p, net := range nets {
		wg.Add(1)
		go func(p int, net transport.Net) {
			defer wg.Done()
			out := transport.Broadcast(net, "probe", []byte{1})
			for r := 0; r < rounds; r++ {
				t := now()
				in, err := net.Exchange(out)
				if err == nil && len(in) != len(nets) {
					err = fmt.Errorf("round %d delivered %d of %d messages", r, len(in), len(nets))
				}
				if err != nil {
					errs[p] = err
					return
				}
				if p == 0 {
					d = append(d, float64(since(t)))
				}
			}
		}(p, net)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("party %d: %w", p, err)
		}
	}
	return time.Duration(median(d)), nil
}

// dialInternal is dialMesh over internal/tcpnet, whose Stats the public
// TCPTransport does not expose.
func dialInternal(n int) ([]*tcpnet.Conn, error) {
	return dialAll(n, func(id int, addrs []string, ln net.Listener) (*tcpnet.Conn, error) {
		return tcpnet.Dial(tcpnet.Config{ID: id, Addrs: addrs, T: (n - 1) / 3, Delta: delta, Listener: ln})
	})
}

func probeTransports(m map[string]float64, sz probeSizes) error {
	for _, n := range []int{16, 7} {
		conns, err := dialInternal(n)
		if err != nil {
			return err
		}
		nets := make([]transport.Net, n)
		for i, c := range conns {
			nets[i] = c
		}
		before := conns[0].Stats()
		d, err := timeRounds(nets, sz.rounds)
		after := conns[0].Stats()
		for _, c := range conns {
			_ = c.Close() // teardown; nothing durable rides on the mesh
		}
		if err != nil {
			return fmt.Errorf("tcpnet n=%d: %w", n, err)
		}
		m[fmt.Sprintf("tcpnet.round_us.n%d", n)] = us(d)
		if n == 16 {
			m["tcpnet.writes_per_round"] = float64(after.Writes-before.Writes) / float64(sz.rounds)
			m["tcpnet.bytes_per_round"] = float64(after.BytesSent-before.BytesSent) / float64(sz.rounds)
		}
	}

	const n = 16
	hub, err := channet.NewHub(n, (n-1)/3)
	if err != nil {
		return err
	}
	nets := make([]transport.Net, n)
	for i := range nets {
		if nets[i], err = hub.Net(i); err != nil {
			return err
		}
	}
	d, err := timeRounds(nets, sz.rounds)
	if err != nil {
		return fmt.Errorf("channet: %w", err)
	}
	m["channet.round_us"] = us(d)

	// sz.live sessions per party over the same hub: one tick merges and
	// demuxes live·n frames per party with no syscall underneath.
	tick, err := timeMuxTicks(nets, sz)
	if err != nil {
		return fmt.Errorf("sessmux over channet: %w", err)
	}
	m["sessmux.tick_us.live64"] = us(tick)
	return nil
}

func timeMuxTicks(base []transport.Net, sz probeSizes) (time.Duration, error) {
	n := len(base)
	errs := make([]error, n)
	elapsed := make([]time.Duration, n)
	var parties sync.WaitGroup
	for p := range base {
		parties.Add(1)
		go func(p int) {
			defer parties.Done()
			mux := sessmux.New(base[p])
			sessions := make([]*sessmux.Session, sz.live)
			for s := range sessions {
				var err error
				if sessions[s], err = mux.Open(uint64(s+1), n, (n-1)/3); err != nil {
					errs[p] = err
					return
				}
			}
			start := now()
			sessErrs := make([]error, sz.live)
			var wg sync.WaitGroup
			for s, sess := range sessions {
				wg.Add(1)
				go func(s int, sess *sessmux.Session) {
					defer wg.Done()
					defer sess.Close()
					out := transport.Broadcast(sess, "probe", []byte{1})
					for r := 0; r < sz.rounds; r++ {
						if _, err := sess.Exchange(out); err != nil {
							sessErrs[s] = err
							return
						}
					}
				}(s, sess)
			}
			wg.Wait()
			elapsed[p] = since(start)
			for _, err := range sessErrs {
				if err != nil {
					errs[p] = err
				}
			}
		}(p)
	}
	parties.Wait()
	for p, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("party %d: %w", p, err)
		}
	}
	return elapsed[0] / time.Duration(sz.rounds), nil
}

func probeCheckpoint(m map[string]float64, sz probeSizes, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// One round's inbox at n = 7 with 64-byte payloads, appended and
	// really fsync'd by the WAL on this host's disk, nothing modelled.
	log, _, err := checkpoint.Open(filepath.Join(dir, "wal"))
	if err != nil {
		return err
	}
	msgs := make([]transport.Message, 7)
	for i := range msgs {
		msgs[i] = transport.Message{From: transport.PartyID(i), Payload: make([]byte, 64)}
	}
	var appendErr error
	m["checkpoint.append_round_us"] = us(medianOf(sz.budget, func() {
		if err := log.AppendRound(msgs); err != nil {
			appendErr = err
		}
	}))
	if err := log.Close(); err != nil {
		return err
	}
	if appendErr != nil {
		return appendErr
	}

	// The same record size written and fsync'd bare: what the disk alone
	// costs. Informational; it describes the host, not the program.
	f, err := os.Create(filepath.Join(dir, "raw"))
	if err != nil {
		return err
	}
	record := make([]byte, 7*70)
	var syncErr error
	m["checkpoint.real_fsync_us"] = us(medianOf(sz.budget, func() {
		if _, err := f.Write(record); err != nil {
			syncErr = err
		}
		if err := f.Sync(); err != nil {
			syncErr = err
		}
	}))
	if err := f.Close(); err != nil {
		return err
	}
	return syncErr
}

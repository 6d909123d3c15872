package transporttest_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/big"
	"strings"
	"testing"

	"convexagreement/internal/aa"
	"convexagreement/internal/ba"
	"convexagreement/internal/baplus"
	"convexagreement/internal/baselines"
	"convexagreement/internal/bc"
	"convexagreement/internal/channet"
	"convexagreement/internal/core"
	"convexagreement/internal/faultnet"
	"convexagreement/internal/highcostca"
	"convexagreement/internal/transport"
	"convexagreement/internal/transporttest"
)

// protocol is one party's run of a protocol entry point; the result is
// rendered with fmt.Sprint only after the transport's last lifetime has
// ended, so an output that aliases a delivered payload shows.
type protocol func(net transport.Net) (any, error)

// recycleDiff runs proto at all n parties over a fresh channet hub twice —
// on the plain transport, then behind transporttest.Recycle — and reports
// the first thing that differs between the two runs: an output, or a
// party's digest of everything it was delivered (a payload relayed past its
// lifetime reaches the peers as 0xDB bytes). Empty means proto never reads
// a payload past the call that ends its lifetime.
func recycleDiff(t *testing.T, n int, proto protocol) string {
	t.Helper()
	type result struct {
		outputs []string
		digests []uint64
	}
	run := func(recycled bool) result {
		hub, err := channet.NewHub(n, (n-1)/3)
		if err != nil {
			t.Fatal(err)
		}
		res := result{outputs: make([]string, n), digests: make([]uint64, n)}
		fns := make([]func(net transport.Net) error, n)
		for i := range fns {
			fns[i] = func(net transport.Net) error {
				end := func() {}
				if recycled {
					r := transporttest.Recycle(net)
					net, end = r, r.Close
				}
				digesting := faultnet.Wrap(net, nil) // empty plan: passthrough plus transcript digest
				out, err := proto(digesting)
				end()
				res.outputs[i], res.digests[i] = fmt.Sprint(out), digesting.Transcript()
				return err
			}
		}
		if err := hub.Run(fns); err != nil {
			t.Fatalf("recycled=%v: %v", recycled, err)
		}
		return res
	}
	plain, recycled := run(false), run(true)
	for i := 0; i < n; i++ {
		if plain.outputs[i] != recycled.outputs[i] {
			return fmt.Sprintf("party %d output %.48s, recycled %.48s", i, plain.outputs[i], recycled.outputs[i])
		}
		if plain.digests[i] != recycled.digests[i] {
			return fmt.Sprintf("party %d inbox digest %#x, recycled %#x", i, plain.digests[i], recycled.digests[i])
		}
	}
	return ""
}

// TestProtocolsHonorPayloadLifetime holds every protocol entry point to
// transport.Net's lifetime rule: run over a transport that overwrites each
// round's inbox — payload bytes and message headers — as the next round is
// entered, it must compute the same outputs from the same traffic as on a
// transport that never reuses memory. BroadcastCAParallel puts
// sessmux.Parallel and its demux sub-slices under the same rule.
func TestProtocolsHonorPayloadLifetime(t *testing.T) {
	// Party id's inputs. The byte-string inputs are shared by n−t parties,
	// so Π_BA+ agrees on them and the t others must learn the value from
	// the dispersal rounds — the rounds that handle other parties' bytes.
	num := func(net transport.Net) *big.Int { return big.NewInt(int64(1000 + 37*net.ID())) }
	blob := func(net transport.Net) []byte {
		if net.ID() >= net.N()-net.T() {
			return bytes.Repeat([]byte{0xee, byte(net.ID())}, 40)
		}
		return bytes.Repeat([]byte("convex"), 50)
	}
	optional := func(v []byte, ok bool, err error) (any, error) {
		return struct {
			v  []byte // rendered by recycleDiff, after the last lifetime ended
			ok bool
		}{v, ok}, err
	}
	protocols := []struct {
		name string
		run  protocol
	}{
		{"core.PiZ", func(net transport.Net) (any, error) {
			return core.PiZ(net, "t", new(big.Int).Sub(num(net), big.NewInt(1100)), nil)
		}},
		{"core.PiN", func(net transport.Net) (any, error) { return core.PiN(net, "t", num(net), nil) }},
		{"core.PiZ/one-set", func(net transport.Net) (any, error) {
			// Two long-path agreements on one core.Buffers, scribbled between
			// them as the next agreement may leave it: the first output must
			// survive that, and the second must be what a fresh set computes.
			// The values are ~2000 bits, so FINDPREFIX's segments are long
			// lanes, committed and dispersed through the set's codec scratch.
			long := func(i int64) *big.Int {
				v := new(big.Int).Lsh(num(net), 2000)
				return v.Or(v, big.NewInt(i*1000+int64(net.ID())))
			}
			var b core.Buffers
			first, err := core.PiZ(net, "t1", long(1), &b)
			if err != nil {
				return nil, err
			}
			kept := first.String()
			b.Scribble()
			second, err := core.PiZ(net, "t2", long(2), &b)
			if err != nil {
				return nil, err
			}
			fresh, err := core.PiZ(net, "t3", long(2), nil)
			if err != nil {
				return nil, err
			}
			if first.String() != kept || second.Cmp(fresh) != 0 {
				return nil, fmt.Errorf("party %d: the reused set leaked into an output (first kept %v, second %v, fresh %v)", net.ID(), first.String() == kept, second, fresh)
			}
			return [2]*big.Int{first, second}, nil
		}},
		{"core.FixedLengthCA", func(net transport.Net) (any, error) {
			return core.FixedLengthCA(net, "t", 16, num(net), nil)
		}},
		{"core.FixedLengthCABlocks", func(net transport.Net) (any, error) {
			return core.FixedLengthCABlocks(net, "t", 16, 4, num(net), nil)
		}},
		{"highcostca.Run", func(net transport.Net) (any, error) {
			out, err := highcostca.Run(net, "t", num(net).Bytes(), nil)
			return new(big.Int).SetBytes(out), err
		}},
		{"baselines.BroadcastCA", func(net transport.Net) (any, error) {
			return baselines.BroadcastCA(net, "t", num(net))
		}},
		{"baselines.BroadcastCAParallel", func(net transport.Net) (any, error) {
			return baselines.BroadcastCAParallel(net, "t", num(net))
		}},
		{"baplus.Plus", func(net transport.Net) (any, error) { return optional(baplus.Plus(net, "t", blob(net))) }},
		{"baplus.Long", func(net transport.Net) (any, error) { return optional(baplus.Long(net, "t", blob(net))) }},
		{"baplus.LongNaive", func(net transport.Net) (any, error) {
			return optional(baplus.LongNaive(net, "t", blob(net)))
		}},
		{"bc.Broadcast", func(net transport.Net) (any, error) {
			return optional(bc.Broadcast(net, "t", 1, blob(net)))
		}},
		{"ba.Binary", func(net transport.Net) (any, error) { return ba.Binary(net, "t", byte(net.ID()%2), nil) }},
		{"ba.Bits", func(net transport.Net) (any, error) {
			lanes := make([]byte, 21) // six-byte frames; party id's bits, so lanes split and agree
			for l := range lanes {
				lanes[l] = byte(net.ID() >> (l % 3) & 1)
			}
			return ba.Bits(net, "t", lanes, nil)
		}},
		{"baplus.LongLanes", func(net transport.Net) (any, error) {
			// The window is the blob, then the party's id and 40 bytes
			// more, as a marshalled bitstring (a 32-bit bit count, then
			// the bytes). Lane 0 is the blob, lanes 1 and 2 are every
			// party's own (both ⊥): j* is lane 0, the narrowest, whose
			// shares are sent from the widest lane's encoding and lane 0's
			// own edge stripes.
			p := append(append(blob(net), byte(net.ID())), bytes.Repeat([]byte{0x5a}, 40)...)
			window := append(binary.BigEndian.AppendUint32(nil, uint32(8*len(p))), p...)
			ends := []int{8 * len(blob(net)), 8*len(blob(net)) + 8, 8 * len(p)}
			lane, v, err := baplus.LongLanes(net, "t", window, ends, nil)
			if err == nil && lane != 0 {
				err = fmt.Errorf("lane %d agreed, want 0", lane)
			}
			return optional(v, lane == 0, err)
		}},
		{"ba.TurpinCoan", func(net transport.Net) (any, error) {
			cands, g, err := ba.TurpinCoan(net, "t", [][]byte{blob(net), blob(net), num(net).Bytes()}, nil)
			return fmt.Sprintf("%x %x", cands, g), err
		}},
		{"aa.Run", func(net transport.Net) (any, error) {
			return aa.Run(net, "t", num(net), big.NewInt(1024), big.NewInt(1))
		}},
	}
	for _, p := range protocols {
		for _, n := range []int{4, 7} {
			t.Run(fmt.Sprintf("%s/n%d", p.name, n), func(t *testing.T) {
				if diff := recycleDiff(t, n, p.run); diff != "" {
					t.Fatal(diff)
				}
			})
		}
	}
}

// TestRecycleCatchesRetention is the decorator's self-test: three toy
// protocols that each break the lifetime rule one way — one returns a
// payload after the Exchange that ended its lifetime, one relays it in that
// Exchange, one keeps the inbox slice and reads it a round late — must all
// come out different behind Recycle.
func TestRecycleCatchesRetention(t *testing.T) {
	capture := func(net transport.Net) ([]byte, error) {
		in, err := transport.ExchangeAll(net, "toy", []byte{0x10, byte(net.ID())}, nil)
		if err != nil {
			return nil, err
		}
		return in[0].Payload, nil // kept without a copy
	}
	returnsLate := func(net transport.Net) (any, error) {
		kept, err := capture(net)
		if err != nil {
			return nil, err
		}
		_, err = transport.ExchangeNone(net)
		return kept, err
	}
	relays := func(net transport.Net) (any, error) {
		kept, err := capture(net)
		if err != nil {
			return nil, err
		}
		_, err = transport.ExchangeAll(net, "toy", kept, nil)
		return nil, err
	}
	keepsSlice := func(net transport.Net) (any, error) {
		in, err := transport.ExchangeAll(net, "toy", []byte{0x10, byte(net.ID())}, nil)
		if err != nil {
			return nil, err
		}
		if _, err = transport.ExchangeNone(net); err != nil {
			return nil, err
		}
		senders := 0 // read through the slice a round late; the payloads are not touched
		for _, m := range in {
			senders += 1 + m.From
		}
		return senders, nil
	}
	if diff := recycleDiff(t, 4, keepsSlice); !strings.Contains(diff, "output") {
		t.Errorf("an inbox slice read past its lifetime went unnoticed (diff %q)", diff)
	}
	if diff := recycleDiff(t, 4, returnsLate); !strings.Contains(diff, "output") {
		t.Errorf("a payload returned past its lifetime went unnoticed (diff %q)", diff)
	}
	if diff := recycleDiff(t, 4, relays); !strings.Contains(diff, "inbox digest") {
		t.Errorf("a payload relayed past its lifetime went unnoticed (diff %q)", diff)
	}
}

// Package highcostca implements HIGHCOSTCA (Theorem 3 / Appendix A.4 of the
// paper): a Convex Agreement protocol for ℕ with communication complexity
// O(ℓ·n³) and round complexity O(n), resilient against t < n/3 corruptions.
//
// It is the paper's adaptation of the Median Validity protocol of Stolz and
// Wattenhofer [47] (a variant of the king-based BA of Berman–Garay–Perry):
// a setup stage in which each party derives a trusted interval that provably
// lies inside the honest inputs' range, followed by t+1 king phases that
// converge on a single value inside some honest trusted interval.
//
// The paper uses it in two places — ADDLASTBLOCK (on one ℓ/n²-bit block) and
// the block-size estimation of Π_N — and it doubles as the O(ℓn³) baseline
// in the experiments.
//
// Naturals. The protocol runs on naturals as their canonical big-endian
// bytes: no leading zero byte, the empty string for 0. Any byte string is a
// natural — with its leading zero bytes trimmed it is the canonical
// encoding of the number it reads as — so every encoding of a number counts
// for that number, and nothing outside ℕ can be smuggled in (the paper's
// "ignore values outside ℕ"). Canonical naturals order as numbers by
// length, then by bytes (natCmp), so the protocol needs no arithmetic: it
// compares, counts and copies bytes.
package highcostca

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"

	"convexagreement/internal/transport"
	"convexagreement/internal/wire"
)

// Work is HIGHCOSTCA's working set, owned by the caller and reused by every
// instance it runs, one at a time (core.Buffers holds one, so a session
// keeps it across agreements). It holds
//
//   - the naturals an instance keeps across rounds, as owned copies:
//     CURRENT, SUGGESTION and the trusted interval;
//   - the send buffer the trusted interval and every relayed natural — a
//     view of the last inbox — are written into, and the fan-out every
//     round is refilled into (transport.ExchangeAll): a Net is done with
//     both, as with the owned naturals it sends, when Exchange returns;
//   - the round scratch, refilled in place: the received naturals sorted,
//     the received intervals and the Tally of a round's values, all views
//     of that round's inbox.
//
// The zero value is ready; a nil *Work is a fresh set for one call.
type Work struct {
	current, suggestion []byte
	lo, hi              []byte
	send                []byte
	fan                 []transport.Packet
	nats                [][]byte
	ivs                 []interval
	tally               transport.Tally
}

// interval is a received trusted interval, its ends canonical.
type interval struct {
	lo, hi []byte
}

// Reset ends an agreement's use of w: the containers holding views of a
// round's inbox are cleared, so w pins none after the agreement. The
// buffers stay.
func (w *Work) Reset() {
	clear(w.fan)
	clear(w.nats[:cap(w.nats)])
	clear(w.ivs[:cap(w.ivs)])
	clear(w.tally[:cap(w.tally)])
}

// Scribble overwrites with 0xDB what the next instance may rewrite: the
// owned naturals — the output a Run returned among them — and the send
// buffer. Tests call it between agreements, after Reset, so that anything
// kept past its agreement reads as garbage.
func (w *Work) Scribble() {
	for _, p := range [][]byte{w.current, w.suggestion, w.lo, w.hi, w.send} {
		p = p[:cap(p)]
		for i := range p {
			p[i] = 0xDB
		}
	}
}

// fresh is the set of a call given none, made out of line on the heap
// (ba.Work's fresh says why).
//
//go:noinline
func fresh() *Work { return new(Work) }

// payload copies nat, a view of the last inbox, into the send buffer.
func (w *Work) payload(nat []byte) []byte {
	w.send = append(w.send[:0], nat...)
	return w.send
}

// Run executes HIGHCOSTCA on input, a natural as big-endian bytes (leading
// zero bytes allowed; input is read only in the call's first round). All
// honest parties must call it in the same round with the same tag. The
// output is the same for all honest parties and lies within the honest
// inputs' range; it is canonical and a view of w, valid until w's next use.
// Run works on w (nil: a fresh set).
func Run(env transport.Net, tag string, input []byte, w *Work) ([]byte, error) {
	if w == nil {
		w = fresh()
	}
	n, t := env.N(), env.T()

	// ---- Setup stage ----
	// Distribute inputs; trim the k extremes on each side, where k is the
	// number of values received beyond the guaranteed n−t honest ones
	// (Lemma 10: at most k of them are byzantine). SUGGESTION holds the
	// party's own input until the second round picks one.
	w.suggestion = append(w.suggestion[:0], trim(input)...)
	in, err := transport.ExchangeAll(env, tag+"/hc-input", w.suggestion, &w.fan)
	if err != nil {
		return nil, err
	}
	received := w.nats[:0]
	for f := transport.FirstsOf(in); f.Next(); {
		received = append(received, trim(f.Message().Payload))
	}
	w.nats = received
	if len(received) < n-t {
		// Fewer than n−t values means an honest sender's message vanished,
		// which the synchronous model forbids: surface loudly.
		return nil, fmt.Errorf("highcostca: received %d values, expected at least %d", len(received), n-t)
	}
	k := len(received) - (n - t)
	slices.SortFunc(received, natCmp)
	w.lo = append(w.lo[:0], received[k]...)
	w.hi = append(w.hi[:0], received[len(received)-1-k]...)

	// Distribute trusted intervals; SUGGESTION is the smallest candidate
	// point covered by at least n−t of the received intervals (a point in
	// n−t intervals lies in ≥ t+1 honest intervals, hence in the honest
	// inputs' range).
	w.send = wire.AppendBytes(wire.AppendBytes(w.send[:0], w.lo), w.hi)
	in, err = transport.ExchangeAll(env, tag+"/hc-interval", w.send, &w.fan)
	if err != nil {
		return nil, err
	}
	// Without a covered point — unreachable when ≥ n−t honest intervals
	// arrive (their pairwise intersection is witnessed by the (t+1)-th
	// lowest honest input) — SUGGESTION stays the party's own valid input,
	// defensively.
	if suggestion, ok := w.chooseSuggestion(in, n-t); ok {
		w.suggestion = append(w.suggestion[:0], suggestion...)
	}
	w.current = append(w.current[:0], w.suggestion...)

	// ---- Search stage: t+1 king phases of 4 rounds each ----
	// The phases' tags, built once per run.
	currentTag, proposeTag := tag+"/hc-current", tag+"/hc-propose"
	kingTag, voteTag := tag+"/hc-king", tag+"/hc-vote"
	for phase := 0; phase <= t; phase++ {
		king := transport.PartyID(phase % n)

		// Round A: exchange CURRENT values.
		in, err = transport.ExchangeAll(env, currentTag, w.current, &w.fan)
		if err != nil {
			return nil, err
		}
		// Round B: propose a value that n−t parties reported, if any.
		if strong, ok := natAtLeast(w.count(in), n-t); ok {
			in, err = transport.ExchangeAll(env, proposeTag, w.payload(strong), &w.fan)
		} else {
			in, err = transport.ExchangeNone(env)
		}
		if err != nil {
			return nil, err
		}
		proposals := w.count(in)
		proposed, haveProposed := natAtLeast(proposals, t+1)
		_, proposalQuorum := natAtLeast(proposals, n-t)
		if haveProposed {
			w.current = append(w.current[:0], proposed...)
		}

		// Round C: the king broadcasts its pick.
		if env.ID() == king {
			kingValue := w.suggestion
			if haveProposed {
				kingValue = w.current
			}
			in, err = transport.ExchangeAll(env, kingTag, kingValue, &w.fan)
		} else {
			in, err = transport.ExchangeNone(env)
		}
		if err != nil {
			return nil, err
		}
		// The king's first message counts, and any bytes are a natural.
		var kingValue []byte
		sent := transport.SentBy(in, king)
		if len(sent) > 0 {
			kingValue = trim(sent[0].Payload)
		}

		// Round D: endorse the king's value if it matches CURRENT or lies
		// in the trusted interval; adopt an endorsed king value unless a
		// full proposal quorum was already seen.
		if len(sent) > 0 &&
			(bytes.Equal(kingValue, w.current) ||
				(natCmp(kingValue, w.lo) >= 0 && natCmp(kingValue, w.hi) <= 0)) {
			in, err = transport.ExchangeAll(env, voteTag, w.payload(kingValue), &w.fan)
		} else {
			in, err = transport.ExchangeNone(env)
		}
		if err != nil {
			return nil, err
		}
		if !proposalQuorum {
			if voted, ok := natAtLeast(w.count(in), t+1); ok {
				w.current = append(w.current[:0], voted...)
			}
		}
	}
	return w.current, nil
}

// Rounds returns ROUNDS_ℓ(HIGHCOSTCA) for corruption budget t: two setup
// rounds plus four rounds per king phase.
func Rounds(t int) int { return 2 + 4*(t+1) }

// trim returns the canonical encoding of the natural raw reads as: raw
// without its leading zero bytes, a view.
func trim(raw []byte) []byte {
	for len(raw) > 0 && raw[0] == 0 {
		raw = raw[1:]
	}
	return raw
}

// natCmp compares canonical naturals as numbers: the longer is the larger,
// and of one length the order is the bytes'.
func natCmp(a, b []byte) int {
	if c := cmp.Compare(len(a), len(b)); c != 0 {
		return c
	}
	return bytes.Compare(a, b)
}

// count refills w's Tally with a round's values as naturals: every encoding
// of a number counts for that number.
func (w *Work) count(in []transport.Message) transport.Tally {
	w.tally = w.tally[:0]
	for f := transport.FirstsOf(in); f.Next(); {
		w.tally.Add(trim(f.Message().Payload), 1)
	}
	return w.tally
}

// natAtLeast returns the smallest natural counted for at least k parties,
// or false. (At the thresholds used by the protocol at most one value can
// be honest-backed; taking the smallest keeps the defensive tie-break
// deterministic.) The tally ascends in bytes: the first of the shortest
// wins.
func natAtLeast(tally transport.Tally, k int) ([]byte, bool) {
	var best transport.Support // Count 0: none yet (a tallied value has Count ≥ 1)
	for _, s := range tally {
		if s.Count >= k && (best.Count == 0 || len(s.Value) < len(best.Value)) {
			best = s
		}
	}
	return best.Value, best.Count != 0
}

// chooseSuggestion picks the smallest candidate point (drawn from the
// received intervals' lower endpoints) that is covered by at least
// `coverage` well-formed intervals, or false if none exists. The point is
// a view of in.
func (w *Work) chooseSuggestion(in []transport.Message, coverage int) ([]byte, bool) {
	ivs := w.ivs[:0]
	for f := transport.FirstsOf(in); f.Next(); {
		r := wire.NewReader(f.Message().Payload)
		lo, hi := trim(r.Bytes()), trim(r.Bytes())
		if r.Close() != nil || natCmp(lo, hi) > 0 {
			continue // malformed or empty interval
		}
		ivs = append(ivs, interval{lo: lo, hi: hi})
	}
	w.ivs = ivs
	slices.SortFunc(ivs, func(a, b interval) int { return natCmp(a.lo, b.lo) })
	for _, c := range ivs {
		count := 0
		for _, iv := range ivs {
			if natCmp(iv.lo, c.lo) <= 0 && natCmp(iv.hi, c.lo) >= 0 {
				count++
			}
		}
		if count >= coverage {
			return c.lo, true
		}
	}
	return nil, false
}

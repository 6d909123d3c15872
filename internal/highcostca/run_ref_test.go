package highcostca

import (
	"bytes"
	"fmt"
	"math/big"
	"sort"

	"convexagreement/internal/transport"
	"convexagreement/internal/wire"
)

// runRef is HIGHCOSTCA as this package ran it on math/big before it ran on
// canonical bytes, kept verbatim but for its names: every received natural
// decoded into a fresh big.Int, every sent one encoded by Int.Bytes, every
// interval framed by a fresh wire.Writer. It is the oracle of
// TestRunMatchesReference: Run must produce the same output and put the
// same bytes on the wire.

func runRef(env transport.Net, tag string, input *big.Int) (*big.Int, error) {
	if input == nil || input.Sign() < 0 {
		return nil, fmt.Errorf("highcostca: input must be a natural number, got %v", input)
	}
	n, t := env.N(), env.T()
	var fan []transport.Packet // every broadcast round's, refilled

	// ---- Setup stage ----
	// Distribute inputs; trim the k extremes on each side, where k is the
	// number of values received beyond the guaranteed n−t honest ones
	// (Lemma 10: at most k of them are byzantine).
	in, err := transport.ExchangeAll(env, tag+"/hc-input", encodeNat(input), &fan)
	if err != nil {
		return nil, err
	}
	received := decodeNats(in)
	if len(received) < n-t {
		// Fewer than n−t values means an honest sender's message vanished,
		// which the synchronous model forbids: surface loudly.
		return nil, fmt.Errorf("highcostca: received %d values, expected at least %d", len(received), n-t)
	}
	k := len(received) - (n - t)
	sort.Slice(received, func(i, j int) bool { return received[i].Cmp(received[j]) < 0 })
	intervalMin := received[k]
	intervalMax := received[len(received)-1-k]

	// Distribute trusted intervals; SUGGESTION is the smallest candidate
	// point covered by at least n−t of the received intervals (a point in
	// n−t intervals lies in ≥ t+1 honest intervals, hence in the honest
	// inputs' range).
	iv := wire.NewWriter(8)
	iv.Bytes(intervalMin.Bytes())
	iv.Bytes(intervalMax.Bytes())
	in, err = transport.ExchangeAll(env, tag+"/hc-interval", iv.Finish(), &fan)
	if err != nil {
		return nil, err
	}
	suggestion := chooseSuggestionRef(in, n-t)
	if suggestion == nil {
		// Unreachable when ≥ n−t honest intervals arrive (their pairwise
		// intersection is witnessed by the (t+1)-th lowest honest input);
		// fall back to the party's own valid input defensively.
		suggestion = input
	}
	current := suggestion

	// ---- Search stage: t+1 king phases of 4 rounds each ----
	for phase := 0; phase <= t; phase++ {
		king := transport.PartyID(phase % n)

		// Round A: exchange CURRENT values.
		in, err = transport.ExchangeAll(env, tag+"/hc-current", encodeNat(current), &fan)
		if err != nil {
			return nil, err
		}
		strong := natAtLeastRef(natTally(in), n-t) // value seen from n−t parties, if any

		// Round B: propose a value that n−t parties reported.
		if strong != nil {
			in, err = transport.ExchangeAll(env, tag+"/hc-propose", encodeNat(strong), &fan)
		} else {
			in, err = transport.ExchangeNone(env)
		}
		if err != nil {
			return nil, err
		}
		proposals := natTally(in)
		proposed := natAtLeastRef(proposals, t+1)
		proposalQuorum := natAtLeastRef(proposals, n-t) != nil
		if proposed != nil {
			current = proposed
		}

		// Round C: the king broadcasts its pick.
		if env.ID() == king {
			kingValue := suggestion
			if proposed != nil {
				kingValue = proposed
			}
			in, err = transport.ExchangeAll(env, tag+"/hc-king", encodeNat(kingValue), &fan)
		} else {
			in, err = transport.ExchangeNone(env)
		}
		if err != nil {
			return nil, err
		}
		// The king's first message counts, and any bytes are a natural.
		var kingValue *big.Int
		if sent := transport.SentBy(in, king); len(sent) > 0 {
			kingValue = decodeNat(sent[0].Payload)
		}

		// Round D: endorse the king's value if it matches CURRENT or lies
		// in the trusted interval; adopt an endorsed king value unless a
		// full proposal quorum was already seen.
		if kingValue != nil &&
			(kingValue.Cmp(current) == 0 ||
				(kingValue.Cmp(intervalMin) >= 0 && kingValue.Cmp(intervalMax) <= 0)) {
			in, err = transport.ExchangeAll(env, tag+"/hc-vote", encodeNat(kingValue), &fan)
		} else {
			in, err = transport.ExchangeNone(env)
		}
		if err != nil {
			return nil, err
		}
		if !proposalQuorum {
			if voted := natAtLeastRef(natTally(in), t+1); voted != nil {
				current = voted
			}
		}
	}
	return current, nil
}

// encodeNat serializes a natural number canonically (no leading zeros).
func encodeNat(v *big.Int) []byte { return v.Bytes() }

// decodeNat parses a natural number; any byte string is a valid ℕ value
// (the paper's "ignore values outside ℕ" maps to: everything on the wire is
// interpreted canonically, so no non-natural can be smuggled in).
func decodeNat(raw []byte) *big.Int { return new(big.Int).SetBytes(raw) }

// decodeNats extracts one natural per sender.
func decodeNats(in []transport.Message) []*big.Int {
	per := transport.FirstPerSender(in)
	out := make([]*big.Int, 0, len(per))
	for _, m := range per {
		out = append(out, decodeNat(m.Payload))
	}
	return out
}

// natTally counts a round's values as naturals: with its leading zero bytes
// trimmed a payload is the canonical encoding of the natural it decodes to,
// so every encoding of a number counts for that number.
func natTally(in []transport.Message) transport.Tally {
	var tally transport.Tally
	for _, m := range transport.FirstPerSender(in) {
		tally.Add(bytes.TrimLeft(m.Payload, "\x00"))
	}
	return tally
}

// natAtLeastRef returns the smallest natural counted for at least k parties,
// or nil. (At the thresholds used by the protocol at most one value can be
// honest-backed; taking the smallest keeps the defensive tie-break
// deterministic.) Canonical encodings order as naturals by length, then
// bytes, and the tally ascends in bytes: the first of the shortest wins.
func natAtLeastRef(tally transport.Tally, k int) *big.Int {
	var best transport.Support // Count 0: none yet (a tallied value has Count ≥ 1)
	for _, s := range tally {
		if s.Count >= k && (best.Count == 0 || len(s.Value) < len(best.Value)) {
			best = s
		}
	}
	if best.Count == 0 {
		return nil
	}
	return decodeNat(best.Value)
}

// intervalRef is a received trusted interval.
type intervalRef struct {
	lo, hi *big.Int
}

// chooseSuggestionRef picks the smallest candidate point (drawn from the
// received intervals' lower endpoints) that is covered by at least
// `coverage` well-formed intervals, or nil if none exists.
func chooseSuggestionRef(in []transport.Message, coverage int) *big.Int {
	var ivs []intervalRef
	for _, m := range transport.FirstPerSender(in) {
		r := wire.NewReader(m.Payload)
		lo := new(big.Int).SetBytes(r.Bytes())
		hi := new(big.Int).SetBytes(r.Bytes())
		if r.Close() != nil || lo.Cmp(hi) > 0 {
			continue // malformed or empty interval
		}
		ivs = append(ivs, intervalRef{lo: lo, hi: hi})
	}
	candidates := make([]*big.Int, 0, len(ivs))
	for _, iv := range ivs {
		candidates = append(candidates, iv.lo)
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].Cmp(candidates[j]) < 0 })
	for _, p := range candidates {
		count := 0
		for _, iv := range ivs {
			if iv.lo.Cmp(p) <= 0 && iv.hi.Cmp(p) >= 0 {
				count++
			}
		}
		if count >= coverage {
			return p
		}
	}
	return nil
}

package baplus

import (
	"bytes"

	"convexagreement/internal/hashing"
	"convexagreement/internal/transport"
)

// LongNaive is the ablation of Long: identical agreement logic (Π_BA+ on
// the value's hash) but the dispersal replaces Reed-Solomon coding and
// Merkle witnesses with the naive scheme prior works used — every holder
// of the agreed value broadcasts it whole. That costs Θ(ℓn²) bits whenever
// many parties hold the value, instead of Long's O(ℓn + κn²·log n).
//
// It exists purely for experiment E16, which isolates how much of the
// paper's saving comes from the coded dispersal: run FINDPREFIX on top of
// LongNaive and the headline O(ℓn) term degrades to O(ℓn²).
//
// Guarantees are the same as Long's (BA + Intrusion Tolerance + Bounded
// Pre-Agreement); only the cost differs.
func LongNaive(env transport.Net, tag string, input []byte) ([]byte, bool, error) {
	digest := hashing.Sum(input)
	zStarRaw, ok, err := Plus(env, tag+"/root", digest[:])
	if err != nil || !ok {
		return nil, false, err
	}
	zStar, wellFormed := hashing.FromBytes(zStarRaw)
	if !wellFormed {
		return nil, false, ErrDispersal
	}
	// Naive dispersal, round A: holders broadcast the full value. Both
	// rounds refill one fan-out.
	var in []transport.Message
	var fan []transport.Packet
	if zStar == digest {
		in, err = transport.ExchangeAll(env, tag+"/naiveout", input, &fan)
	} else {
		in, err = transport.ExchangeNone(env)
	}
	if err != nil {
		return nil, false, err
	}
	value, have := holding(in, zStar)
	// Round B: re-broadcast so parties the byzantine holders skipped still
	// receive it (the naive totality step — another full ℓn² of traffic).
	if have {
		in, err = transport.ExchangeAll(env, tag+"/naiverelay", value, &fan)
	} else {
		in, err = transport.ExchangeNone(env)
	}
	if err != nil {
		return nil, false, err
	}
	if !have {
		value, have = holding(in, zStar)
	}
	if !have {
		// Unreachable under Intrusion Tolerance + collision resistance:
		// the agreed digest belongs to an honest holder who broadcast.
		return nil, false, ErrDispersal
	}
	return value, true, nil
}

// holding returns the first payload of the inbox whose digest is want, as a
// copy: it is relayed and returned past this inbox's lifetime.
func holding(in []transport.Message, want hashing.Digest) ([]byte, bool) {
	for _, m := range in {
		if hashing.Sum(m.Payload) == want {
			return bytes.Clone(m.Payload), true
		}
	}
	return nil, false
}

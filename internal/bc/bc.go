// Package bc implements synchronous Byzantine Broadcast (BC) for long
// messages — the primitive the paper's introduction uses as the strawman
// route to CA ("each party sends its input value via BC"), built in the
// extension-protocol style of the works it cites ([8], [41], [11], [28]):
// one dissemination round followed by Π_ℓBA+ on the received value, so a
// single ℓ-bit broadcast costs O(ℓn + κ·n²·log n) bits instead of the
// naive Θ(ℓn²).
//
// For n > 3t each instance guarantees:
//
//   - Validity: if the sender is honest, every honest party outputs the
//     sender's value (ok = true).
//   - Agreement: all honest parties output the same (value, ok) — a
//     byzantine sender can force ok = false or a value of its choice, but
//     never disagreement.
//   - Termination: every honest party outputs after a bounded number of
//     rounds.
package bc

import (
	"convexagreement/internal/baplus"
	"convexagreement/internal/transport"
	"convexagreement/internal/wire"
)

// Broadcast runs one BC instance. All honest parties must call it in the
// same round with the same tag and sender; value is the payload and is
// consulted only by the sender itself. The return is (value, true) when
// the broadcast delivered, (nil, false) when the (necessarily byzantine)
// sender failed to get any single value across.
func Broadcast(env transport.Net, tag string, sender transport.PartyID, value []byte) ([]byte, bool, error) {
	var in []transport.Message
	var err error
	if env.ID() == sender {
		in, err = transport.ExchangeAll(env, tag+"/bc-send", wire.Some(value), nil)
	} else {
		in, err = transport.ExchangeNone(env)
	}
	if err != nil {
		return nil, false, err
	}
	// The sender's first message counts. frame borrows the inbox; Long
	// RS-encodes it before its first Exchange.
	frame := wire.None()
	if sent := transport.SentBy(in, sender); len(sent) > 0 {
		frame = sent[0].Payload
	}
	// Π_ℓBA+ turns the (possibly equivocated) per-party views into one
	// agreed frame: an honest sender hits Validity, a byzantine one hits
	// Agreement; Intrusion Tolerance keeps the result a frame some honest
	// party actually received.
	agreed, ok, err := baplus.Long(env, tag+"/bc-agree", frame)
	if err != nil || !ok {
		return nil, false, err
	}
	v, present := wire.Option(agreed)
	return v, present, nil
}

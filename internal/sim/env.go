package sim

import "convexagreement/internal/transport"

// The simulator's wire types are the shared transport types; protocols
// written against transport.Net run unchanged on the simulator and on real
// transports (package tcpnet).
type (
	// PartyID identifies a party; parties are numbered 0..n-1.
	PartyID = transport.PartyID
	// Packet is an outgoing message addressed to one party.
	Packet = transport.Packet
	// Message is a delivered packet with an authenticated sender.
	Message = transport.Message
)

var _ transport.Net = (*Env)(nil)

// ExchangeAll broadcasts payload and completes the round, returning the
// inbox.
func (e *Env) ExchangeAll(tag string, payload []byte) ([]Message, error) {
	return transport.ExchangeAll(e, tag, payload)
}

// ExchangeNone participates in a round without sending anything.
func (e *Env) ExchangeNone() ([]Message, error) {
	return transport.ExchangeNone(e)
}

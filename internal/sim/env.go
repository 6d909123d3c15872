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

// Package rbc implements Bracha's asynchronous Reliable Broadcast over the
// asynchronous network simulator (package asyncnet) — the foundational
// primitive of the asynchronous agreement literature the paper builds on
// (§1.1: [1], [16], [26]) and the substrate of this repository's
// asynchronous Approximate Agreement (package asyncaa).
//
// For n > 3t, each instance guarantees, despite t byzantine parties and a
// fully adversarial message schedule:
//
//   - Validity: if the sender is honest, every honest party eventually
//     delivers the sender's value.
//   - Consistency: no two honest parties deliver different values.
//   - Totality: if any honest party delivers, every honest party does.
//
// The classic three-phase structure: the sender sends INITIAL(v); parties
// echo the first INITIAL they see; a party sends READY(v) after
// ⌈(n+t+1)/2⌉ ECHOes or t+1 READYs for v; it delivers v after 2t+1 READYs.
//
// A Node multiplexes any number of instances, keyed by (slot, sender) so a
// protocol can have every party broadcast once per iteration. It is a
// sans-io state machine: feed it received messages with Handle, get back
// deliveries; it never blocks.
package rbc

import (
	"bytes"

	"convexagreement/internal/asyncnet"
	"convexagreement/internal/wire"
)

// Message type tags on the wire.
const (
	msgInitial byte = 1
	msgEcho    byte = 2
	msgReady   byte = 3
)

// Delivery is one reliably delivered broadcast.
type Delivery struct {
	Slot   uint64
	Sender asyncnet.PartyID
	Value  []byte
}

// instKey identifies an instance: the slot (protocol-level sequence number,
// e.g. an iteration index) and the broadcasting party.
type instKey struct {
	slot   uint64
	sender asyncnet.PartyID
}

// instState tracks one instance's progress at this party.
type instState struct {
	echoed    bool
	readied   bool
	delivered bool
	// echoes and readies map value → set of parties that sent it; each
	// party's first message of each type is counted.
	echoes     map[string]map[asyncnet.PartyID]bool
	readies    map[string]map[asyncnet.PartyID]bool
	echoVoted  map[asyncnet.PartyID]bool
	readyVoted map[asyncnet.PartyID]bool
}

// Node multiplexes reliable-broadcast instances for one party.
type Node struct {
	net  *asyncnet.Net
	id   asyncnet.PartyID
	n, t int
	inst map[instKey]*instState
}

// NewNode creates a node for the given party.
func NewNode(net *asyncnet.Net, id asyncnet.PartyID) *Node {
	return &Node{net: net, id: id, n: net.N(), t: net.T(), inst: make(map[instKey]*instState)}
}

// Broadcast starts an instance with this party as the sender.
func (nd *Node) Broadcast(slot uint64, value []byte) {
	nd.net.Broadcast(nd.id, encode(msgInitial, slot, nd.id, value))
}

// Handle processes one received network message, returning any instances it
// caused to deliver. Undecodable or protocol-violating messages are
// dropped; a Node never fails on byzantine input.
func (nd *Node) Handle(msg asyncnet.Message) []Delivery {
	typ, slot, sender, value, ok := decode(msg.Payload)
	if !ok {
		return nil
	}
	switch typ {
	case msgInitial:
		// An INITIAL is only meaningful from the claimed sender itself —
		// authenticated channels stop byzantine parties from opening
		// instances in an honest party's name.
		if sender != msg.From {
			return nil
		}
		return nd.onInitial(slot, sender, value)
	case msgEcho:
		return nd.onEcho(slot, sender, msg.From, value)
	case msgReady:
		return nd.onReady(slot, sender, msg.From, value)
	default:
		return nil
	}
}

func (nd *Node) state(k instKey) *instState {
	st, ok := nd.inst[k]
	if !ok {
		st = &instState{
			echoes:     make(map[string]map[asyncnet.PartyID]bool),
			readies:    make(map[string]map[asyncnet.PartyID]bool),
			echoVoted:  make(map[asyncnet.PartyID]bool),
			readyVoted: make(map[asyncnet.PartyID]bool),
		}
		nd.inst[k] = st
	}
	return st
}

func (nd *Node) onInitial(slot uint64, sender asyncnet.PartyID, value []byte) []Delivery {
	st := nd.state(instKey{slot, sender})
	if st.echoed {
		return nil
	}
	st.echoed = true
	nd.net.Broadcast(nd.id, encode(msgEcho, slot, sender, value))
	return nil
}

func (nd *Node) onEcho(slot uint64, sender, from asyncnet.PartyID, value []byte) []Delivery {
	k := instKey{slot, sender}
	st := nd.state(k)
	if st.echoVoted[from] {
		return nil // one echo per party per instance
	}
	st.echoVoted[from] = true
	set := st.echoes[string(value)]
	if set == nil {
		set = make(map[asyncnet.PartyID]bool)
		st.echoes[string(value)] = set
	}
	set[from] = true
	if len(set) >= nd.echoThreshold() && !st.readied {
		st.readied = true
		nd.net.Broadcast(nd.id, encode(msgReady, slot, sender, value))
	}
	return nil
}

func (nd *Node) onReady(slot uint64, sender, from asyncnet.PartyID, value []byte) []Delivery {
	k := instKey{slot, sender}
	st := nd.state(k)
	if st.readyVoted[from] {
		return nil
	}
	st.readyVoted[from] = true
	set := st.readies[string(value)]
	if set == nil {
		set = make(map[asyncnet.PartyID]bool)
		st.readies[string(value)] = set
	}
	set[from] = true
	// Ready amplification: t+1 READYs prove an honest party saw an echo
	// quorum, so it is safe (and necessary, for totality) to join.
	if len(set) >= nd.t+1 && !st.readied {
		st.readied = true
		nd.net.Broadcast(nd.id, encode(msgReady, slot, sender, value))
	}
	if len(set) >= 2*nd.t+1 && !st.delivered {
		st.delivered = true
		val := append([]byte(nil), value...)
		return []Delivery{{Slot: slot, Sender: sender, Value: val}}
	}
	return nil
}

// echoThreshold is ⌈(n+t+1)/2⌉: two echo quorums intersect in an honest
// party, so no two honest parties can become ready for different values
// via echoes.
func (nd *Node) echoThreshold() int {
	return (nd.n + nd.t + 2) / 2 // integer ⌈(n+t+1)/2⌉
}

// encode frames an rbc message.
func encode(typ byte, slot uint64, sender asyncnet.PartyID, value []byte) []byte {
	w := wire.NewWriter(12 + len(value))
	w.Byte(typ)
	w.Uvarint(slot)
	w.Uvarint(uint64(sender))
	w.Bytes(value)
	return w.Finish()
}

// decode parses an rbc message; ok=false on garbage.
func decode(raw []byte) (typ byte, slot uint64, sender asyncnet.PartyID, value []byte, ok bool) {
	r := wire.NewReader(raw)
	typ = r.Byte()
	slot = r.Uvarint()
	senderRaw := r.Int()
	value = bytes.Clone(r.Bytes()) // instances keep the value past raw's delivery
	if r.Close() != nil {
		return 0, 0, 0, nil, false
	}
	return typ, slot, asyncnet.PartyID(senderRaw), value, true
}

// Package transport defines the synchronous-network abstraction that every
// protocol in this library is written against.
//
// The paper's model (§2) gives each party an authenticated channel to every
// other party and lock-step rounds: all messages sent in round r arrive at
// the start of round r+1. A Net provides exactly that as a blocking
// Exchange call. The base implementations are the in-process simulator with
// byzantine adversaries and cost accounting (package sim), a TCP mesh with
// Δ-timeout round synchronization (package tcpnet) and an in-process
// channel hub (package channet); faultnet and sessmux are Nets stacked on
// another Net.
//
// Exchange is the one send verb. A broadcast is Exchange over n packets
// that share one payload slice (ExchangeAll), and every Net that can do
// better with a broadcast — tcpnet encodes it once, sessmux merges it as
// one All entry, the simulator's rushing snapshot copies it once — finds it
// by that identity, never through an optional method a wrapper could fail
// to forward. IsBroadcast is the one recogniser tcpnet and sessmux ask.
// VecNet is the scatter-gather form a multiplexer ships its merged round
// in; tcpnet's Exchange stages its round into it.
//
// It is also the one home of how a protocol reads a round: FirstPerSender,
// Tally, LaneTallies, LaneVotes, MajorityBit and SentBy (PROTOCOLS.md maps
// them to the paper).
package transport

import (
	"bytes"
	"cmp"
	"math"
	"slices"

	"convexagreement/internal/wire"
)

// PartyID identifies a party; parties are numbered 0..n-1. It is an alias
// of int, so the root package's Packet/Message/Transport are these very
// types and a transport written against the public API (ID() int) is a Net.
type PartyID = int

// Packet is an outgoing message: a payload addressed to one party, labelled
// with a protocol tag for cost attribution (tags are metadata; they are not
// transmitted semantics).
type Packet struct {
	To      PartyID
	Tag     string
	Payload []byte
}

// Message is a delivered packet. From is trustworthy: channels are
// authenticated, so a byzantine party cannot spoof its identity. Payload is
// borrowed from the transport under Net's lifetime rule.
type Message struct {
	From    PartyID
	Payload []byte
}

// Net is one party's handle to the synchronous network.
//
// Exchange submits the party's packets for the current round and blocks
// until the round closes, returning the packets delivered to this party
// sorted by sender. Every party must call Exchange once per round (with an
// empty slice to stay silent); the paper's protocols guarantee all honest
// parties take identical control-flow branches, which keeps the round
// schedule aligned.
//
// Payload lifetime — one rule for every Net, so that a transport may
// deliver out of memory it reuses (tcpnet's pooled frames) and every layer
// stacked on it (session muxes, fault injectors, recorders) passes payloads
// through by reference: the messages Exchange returns are read-only and
// valid until the next Exchange or Close on that Net; whoever keeps or
// forwards a payload past that call copies it first (bytes.Clone at the
// site). Two more clauses let every per-round container be scratch its
// owner resets instead of reallocating: the []Message slice Exchange
// returns, like the payloads in it, is valid only until the next Exchange
// or Close on that Net (a Net hands out an inbox it refills next round);
// and a Net never retains the out slice past the call (it encodes or copies
// the Packet values before it returns), so a caller may refill one out
// slice round after round. transporttest.Recycle and the conformance
// battery's out-reuse check turn the rule from a promise into failing
// tests.
type Net interface {
	// ID returns this party's identifier (0-based).
	ID() PartyID
	// N returns the total number of parties.
	N() int
	// T returns the protocol's corruption budget t (t < n/3 for every
	// protocol in this library).
	T() int
	// Exchange completes one synchronous round.
	Exchange(out []Packet) ([]Message, error)
}

// Broadcast builds packets carrying payload to every party, including the
// sender itself (self-delivery is free in the cost model but keeps protocol
// code uniform: a party's own value is just another received value).
func Broadcast(net Net, tag string, payload []byte) []Packet {
	out := make([]Packet, net.N())
	for i := range out {
		out[i] = Packet{To: PartyID(i), Tag: tag, Payload: payload}
	}
	return out
}

// ExchangeAll broadcasts payload and completes the round: it is
// Exchange(Broadcast(net, tag, payload)) with the n packets written into
// *fan, which it refills in place round after round — Net never keeps the
// out slice, so one slice serves every broadcast of a run. The caller owns
// it: a protocol's work set (ba.Work) or its run keeps one. A nil fan is a
// fresh slice, for a one-off round. Every layer below recognises the
// broadcast by payload identity, so there is no second send verb to
// forward: a wrapper that implements Exchange has the fast path too.
func ExchangeAll(net Net, tag string, payload []byte, fan *[]Packet) ([]Message, error) {
	if fan == nil {
		fan = new([]Packet)
	}
	n := net.N()
	out := slices.Grow((*fan)[:0], n)[:n]
	for to := range out {
		out[to] = Packet{To: to, Tag: tag, Payload: payload}
	}
	*fan = out
	return net.Exchange(out)
}

// SamePayload reports whether a and b are the very same payload slice:
// same start and same length (empty payloads are all alike). It is how
// every layer tells a broadcast from n packets that merely carry equal
// bytes — never by content.
func SamePayload(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// IsBroadcast reports whether out is a broadcast to n parties: To = i at
// position i, every packet with the first one's tag and the very same
// payload slice (SamePayload). It is the one recogniser of a broadcast:
// ExchangeAll's rounds pass it, and a layer that sends a broadcast as one
// entry (sessmux's merge, tcpnet's shared frame) asks it and nothing else.
func IsBroadcast(out []Packet, n int) bool {
	if len(out) != n {
		return false
	}
	for i := range out {
		if p := &out[i]; p.To != i || p.Tag != out[0].Tag || !SamePayload(p.Payload, out[0].Payload) {
			return false
		}
	}
	return true
}

// ExchangeNone participates in a round without sending anything.
func ExchangeNone(net Net) ([]Message, error) {
	return net.Exchange(nil)
}

// VecPacket is an outgoing message whose payload is a scatter-gather
// vector: the delivered payload is the concatenation of Vec's pieces. It
// exists for multiplexers that prepend small routing headers (an instance
// or session id) to payloads they do not own — with a flat Packet the
// header forces a copy of every payload byte; with a VecPacket the header
// is one tiny piece and the payload rides by reference down to the one
// copy the transport makes anyway (TCP's pooled round frame).
//
// To may be All: one entry that stands for the n packets of a broadcast,
// To = 0, …, n−1 in order, each carrying the same Tag and pieces. A
// multiplexer whose session broadcasts to every party (IsBroadcast, at the
// base's full width) hands the transport that one entry instead of n, and
// the transport encodes it once. All is a VecPacket address only: Exchange
// drops a Packet addressed to it like any other out-of-range one, and a Net
// whose Exchange stages onto ExchangeVec filters it out before it could
// become a broadcast.
//
// Ownership: every piece must stay valid and unmutated until ExchangeVec
// returns. Whatever needs a retained flat copy (in-process delivery,
// rejoin-replay buffering) makes it before then.
type VecPacket struct {
	To  PartyID
	Tag string
	Vec [][]byte
}

// All addresses a VecPacket to every party, the sender included.
const All PartyID = math.MinInt

// VecNet is an optional transport capability: a Net that can ship
// scatter-gather packets without the caller flattening them. Semantics
// must be byte-identical to Exchange over packets whose Payload is the
// concatenation of each Vec — a receiver cannot tell which form the
// sender used. The TCP transport implements it (pieces are copied once,
// straight into its pooled frame); lock-step in-process transports, which
// retain payloads by reference, do not. Callers go through ExchangeVec.
type VecNet interface {
	Net
	ExchangeVec(out []VecPacket) ([]Message, error)
}

// ExchangeVec completes one round of scatter-gather packets over any Net:
// through the base's own ExchangeVec when it is a VecNet, otherwise by
// flattening every packet into one bump buffer and calling Exchange. The
// buffer is fresh each round — plain transports retain payloads by
// reference (in-process delivery, fault-injection delay queues) — and each
// payload is carved with a full slice expression so an append through one
// can never bleed into the next. An All entry is flattened once and
// expanded into the n packets it stands for, in place, all sharing that
// one read-only payload as Broadcast's packets do. Either way the pieces
// are free for reuse when it returns.
func ExchangeVec(net Net, out []VecPacket) ([]Message, error) {
	if vn, ok := net.(VecNet); ok {
		return vn.ExchangeVec(out)
	}
	total, packets := 0, 0
	for i := range out {
		for _, p := range out[i].Vec {
			total += len(p)
		}
		if out[i].To == All {
			packets += net.N()
		} else {
			packets++
		}
	}
	buf := make([]byte, 0, total)
	flat := make([]Packet, 0, packets)
	for i := range out {
		mark := len(buf)
		for _, p := range out[i].Vec {
			buf = append(buf, p...)
		}
		payload := buf[mark:len(buf):len(buf)]
		if out[i].To != All {
			flat = append(flat, Packet{To: out[i].To, Tag: out[i].Tag, Payload: payload})
			continue
		}
		for to := range net.N() {
			flat = append(flat, Packet{To: to, Tag: out[i].Tag, Payload: payload})
		}
	}
	return net.Exchange(flat)
}

// FirstPerSender reduces an inbox to at most one message per sender: the
// first each party sent this round. This models the synchronous abstraction
// "the value received from P_j" — byzantine parties that spam several
// conflicting messages over one authenticated channel in one round get
// exactly one of them considered, deterministically.
//
// Every Net delivers sorted by sender, so an honest round is its own
// first-per-sender set and comes back as it is; only an inbox in which a
// sender repeats (byzantine spam) is filtered into a copy, by comparing
// each sender with the last one kept. An inbox out of sender order, which
// no Net in this module delivers, is filtered through a set of the senders
// seen, in order of first appearance. The result is read-only and lives as
// long as msgs does.
func FirstPerSender(msgs []Message) []Message {
	i := 1
	for i < len(msgs) && msgs[i].From > msgs[i-1].From {
		i++
	}
	if i >= len(msgs) {
		return msgs
	}
	out := make([]Message, 0, len(msgs)-1)
	if slices.IsSortedFunc(msgs[i-1:], bySender) {
		for _, m := range msgs {
			if len(out) == 0 || m.From != out[len(out)-1].From {
				out = append(out, m)
			}
		}
		return out
	}
	seen := make(map[PartyID]struct{}, len(msgs))
	for _, m := range msgs {
		if _, dup := seen[m.From]; !dup {
			seen[m.From] = struct{}{}
			out = append(out, m)
		}
	}
	return out
}

func bySender(a, b Message) int { return cmp.Compare(a.From, b.From) }

// Support is one distinct value of a round and the number of parties
// counted for it.
type Support struct {
	Value []byte
	Count int
}

// Tally is the paper's "received from ≥ k parties": the distinct values of
// one round with the number of parties behind each, ascending by
// bytes.Compare. A protocol Adds the decoded value of each FirstPerSender
// message (a message naming two values adds both) and picks by Count; the
// order makes "the smallest such value" the first match. Values are
// borrowed, normally from the inbox: one that outlives the next Exchange is
// cloned by whoever keeps it. A round in which the parties agree costs the
// one-element slice.
type Tally []Support

// Add counts one more party for v.
func (t *Tally) Add(v []byte) {
	i, found := slices.BinarySearchFunc(*t, v, func(s Support, v []byte) int { return bytes.Compare(s.Value, v) })
	if found {
		(*t)[i].Count++
		return
	}
	// append and shift rather than slices.Insert, whose growth costs one
	// allocation more under -race: append grows the same in both builds.
	*t = append(*t, Support{})
	copy((*t)[i+1:], (*t)[i:])
	(*t)[i] = Support{Value: v, Count: 1}
}

// LaneTallies is Tally asked of the k = len(tallies) lanes of a round of
// lane frames (wire.Lanes) at once: it empties every tally and hands lane l
// of each sender's first message to add(&tallies[l], entry). A message that
// is not a k-lane frame counts for nothing in any lane; otherwise lane l's
// tally reads lane l's entries only. entries is the caller's scratch, k
// long: it holds the last message's entries when LaneTallies returns. The
// containers belong to the caller's work set (ba.Work), which refills them
// round after round.
func LaneTallies(in []Message, tallies []Tally, entries [][]byte, add func(t *Tally, entry []byte)) {
	for l := range tallies {
		tallies[l] = tallies[l][:0]
	}
	for _, m := range FirstPerSender(in) {
		if wire.SplitLanes(m.Payload, entries) {
			for l, e := range entries {
				add(&tallies[l], e)
			}
		}
	}
}

// AddOption is LaneTallies' rule for lanes of option frames: a present
// value counts, ⊥ and anything else nothing.
func AddOption(t *Tally, entry []byte) {
	if v, ok := wire.Option(entry); ok {
		t.Add(v)
	}
}

// Lane values. A lanes frame carries k independent bit questions of one
// round, lane l in bits 2(l mod 4) and 2(l mod 4)+1 of byte l/4: 0, 1, ⊥
// (LaneBot) or 3, which no honest party sends. The frame is exactly
// LaneBytes(k) bytes and the unused high bits of its last byte are zero, so
// a one-lane frame is the single byte 0, 1 or 2.
const LaneBot byte = 2

// LaneBytes is the length of a k-lane frame.
func LaneBytes(k int) int { return (k + 3) / 4 }

// PackLanes encodes lanes (each 0, 1 or LaneBot) into dst, which must be
// LaneBytes(len(lanes)) long.
func PackLanes(dst, lanes []byte) {
	clear(dst)
	for l, v := range lanes {
		dst[l/4] |= v << (2 * (l % 4))
	}
}

// UnpackLanes decodes a len(lanes)-lane frame into lanes. A payload of the
// wrong length or with non-zero padding is no frame at all: it reports
// false and leaves lanes alone. A lane that reads 2 or 3 is that lane's
// sender abstaining or misbehaving in that lane only; what to make of it
// is the caller's rule.
func UnpackLanes(payload, lanes []byte) bool {
	if !isLanes(payload, len(lanes)) {
		return false
	}
	for l := range lanes {
		lanes[l] = lane(payload, l)
	}
	return true
}

// isLanes reports whether payload is a k-lane frame.
func isLanes(payload []byte, k int) bool {
	return len(payload) == LaneBytes(k) && (k%4 == 0 || payload[len(payload)-1]>>(2*(k%4)) == 0)
}

// lane reads lane l of a frame.
func lane(frame []byte, l int) byte { return frame[l/4] >> (2 * (l % 4)) & 3 }

// LaneVotes is the paper's "the bit most parties sent", asked of k lanes at
// once: v[l][b] is the number of parties whose lane l read b. The slice is
// the caller's scratch; Count refills it every round.
type LaneVotes [][2]int

// Count reads one round: over the first message of each sender, ignoring
// whatever is not a len(v)-lane frame, every lane that reads 0 or 1 counts
// for that bit and every other lane (⊥, garbage) for nothing.
func (v LaneVotes) Count(in []Message) {
	clear(v)
	for _, m := range FirstPerSender(in) {
		if !isLanes(m.Payload, len(v)) {
			continue
		}
		for l := range v {
			if b := lane(m.Payload, l); b <= 1 {
				v[l][b]++
			}
		}
	}
}

// Majority is lane l's majority bit — 0 on a tie or an empty lane — and how
// many parties sent it.
func (v LaneVotes) Majority(l int) (bit byte, count int) {
	if v[l][1] > v[l][0] {
		bit = 1
	}
	return bit, v[l][bit]
}

// MajorityBit is the paper's "the bit most parties sent" for a round of
// one-byte 0/1 messages (a one-lane frame): the bit more parties sent — 0
// on a tie or an empty round — and how many sent it.
func MajorityBit(in []Message) (bit byte, count int) {
	var one [1][2]int
	votes := LaneVotes(one[:])
	votes.Count(in)
	return votes.Majority(0)
}

// SentBy is "what P_j sent": every message of this round's inbox whose
// sender is j, in arrival order — one for an honest j that spoke, none for
// a silent one, several for a byzantine j that spams its channel. It is the
// accessor under every round in which one designated party (a king, a
// broadcaster) speaks; which of several messages counts is the caller's
// rule, stated at the call. The result lives as long as in does.
func SentBy(in []Message, j PartyID) []Message {
	lo := 0
	for lo < len(in) && in[lo].From != j {
		lo++
	}
	hi := lo
	for hi < len(in) && in[hi].From == j {
		hi++
	}
	sent := in[lo:hi:hi]
	for _, m := range in[hi:] {
		if m.From == j { // an unsorted inbox (a custom transport): gather the rest into a copy
			sent = append(sent, m)
		}
	}
	return sent
}

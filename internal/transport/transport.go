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
// in; tcpnet's Exchange stages its round into it. Over a Net without it,
// the multiplexer flattens the round through a Flat it keeps.
//
// It is also the one home of how a protocol reads a round: Firsts, Tally,
// LaneTallies, LaneVotes, MajorityBit and SentBy (PROTOCOLS.md maps them to
// the paper). Each reads the inbox in place: a byzantine sender repeating
// itself costs the honest reader nothing but the skipped messages.
package transport

import (
	"bytes"
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
// and a Net is done with out when Exchange returns — the slice and the
// payload bytes it points to (a Net encodes or copies them before it
// returns, as the paper's network owns a round's messages until it
// delivers them) — so a caller may refill one out slice and rewrite one
// send buffer round after round. A Net that delivered a sender's bytes by
// reference would break the second clause: the in-process Nets copy a
// round's payloads when it closes (Copied). transporttest.Recycle and the
// conformance battery's out-reuse check turn the rule from a promise into
// failing tests.
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

// Copied returns out[i]'s payload copied onto the end of *buf, or prev —
// the copy made of out[i−1]'s — when the two are the very same payload
// slice (SamePayload): a sender's run of packets on one payload, such as a
// broadcast, is copied once and the copy shared by the run. A copy is
// capped, so an append through it cannot reach the next, and stays where
// it is when *buf grows. The in-process Nets take a round's payloads with
// it when the round closes, and the simulator its rushing snapshot.
func Copied(buf *[]byte, out []Packet, i int, prev []byte) []byte {
	if i > 0 && SamePayload(out[i].Payload, out[i-1].Payload) {
		return prev
	}
	off := len(*buf)
	*buf = append(*buf, out[i].Payload...)
	return (*buf)[off:len(*buf):len(*buf)]
}

// CopiedBytes is how many bytes Copied appends for all of out.
func CopiedBytes(out []Packet) int {
	n := 0
	for i := range out {
		if i == 0 || !SamePayload(out[i].Payload, out[i-1].Payload) {
			n += len(out[i].Payload)
		}
	}
	return n
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
// (or Flat.Flatten) returns. Whatever needs a retained flat copy
// (rejoin-replay buffering) makes it before then.
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
// straight into its pooled frame); the in-process transports, which copy
// flat payloads at round close, do not, and a caller over one of those
// sends the same round through Flat.
type VecNet interface {
	Net
	ExchangeVec(out []VecPacket) ([]Message, error)
}

// Flat flattens scatter-gather packets for a Net without ExchangeVec,
// into a byte buffer and a packet slice it keeps and refills at every
// Flatten: a Net is done with the packets it is sent once its Exchange
// returns, so a round's flat packets are free by the next round.
type Flat struct {
	buf  []byte
	pkts []Packet
}

// Flatten returns out as the flat packets it stands for at width n. Each
// entry's pieces are concatenated into one payload carved from the kept
// buffer with a full slice expression, so an append through one can never
// bleed into the next; a grown buffer leaves its old array, which the
// payloads carved so far point into, as it is. An All entry is flattened
// once and expanded in place into the n packets it stands for, all
// sharing that one payload as a broadcast's packets do (IsBroadcast). The
// packets are valid until the next Flatten; the pieces are free when it
// returns.
func (f *Flat) Flatten(out []VecPacket, n int) []Packet {
	buf, flat := f.buf[:0], f.pkts[:0]
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
		for to := range n {
			flat = append(flat, Packet{To: to, Tag: out[i].Tag, Payload: payload})
		}
	}
	f.buf, f.pkts = buf, flat
	return flat
}

// Firsts walks an inbox's first message from each sender in place, in
// order of first appearance, one at a time (Next) or a run of byte-equal
// first messages at a time (Run). This models the synchronous abstraction
// "the value received from P_j": byzantine parties that spam several
// conflicting messages over one authenticated channel in one round get
// exactly one of them considered, deterministically. It neither copies
// the inbox nor allocates: in a sender-sorted inbox, which every Net
// delivers, a message is its sender's first when the one before it is
// another sender's; in an inbox out of sender order, when no message
// before it is its sender's.
type Firsts struct {
	in    []Message
	order int // ascending (every message a first one), sorted (senders never descend) or unsorted
	head  int // the message Message returns: the run's first
	last  int // the last message the walk has passed; -1 before the first
	count int // the run's length, 1 after Next
}

// The orders of an inbox Firsts tells apart.
const (
	ascending = iota
	sorted
	unsorted
)

// FirstsOf starts a walk of in, before its first message.
func FirstsOf(in []Message) Firsts {
	order := ascending
	for i := 1; i < len(in); i++ {
		if d := in[i].From - in[i-1].From; d <= 0 {
			if d < 0 {
				order = unsorted
				break
			}
			order = sorted
		}
	}
	return Firsts{in: in, order: order, last: -1}
}

// after is the index of the first first message past i, len(in) if none.
func (f *Firsts) after(i int) int {
	in := f.in
	i++
	switch f.order {
	case sorted:
		for i > 0 && i < len(in) && in[i].From == in[i-1].From {
			i++
		}
	case unsorted:
		for i < len(in) && sentBefore(in, i) {
			i++
		}
	}
	return i
}

// sentBefore reports whether in[i]'s sender has a message before it.
func sentBefore(in []Message, i int) bool {
	for _, m := range in[:i] {
		if m.From == in[i].From {
			return true
		}
	}
	return false
}

// Next moves to the next first message and reports whether there is one.
func (f *Firsts) Next() bool {
	f.head = f.after(f.last)
	f.last, f.count = f.head, 1
	return f.head < len(f.in)
}

// Run moves past the next run of byte-equal first messages and reports
// whether there is one: Message is then the run's first message and Count
// its length. Equal frames from distinct senders arrive in distinct slices
// over TCP, so a run is found by content, never by slice identity; a
// sender's repeats inside a run neither count nor end it.
func (f *Firsts) Run() bool {
	if f.order != ascending {
		return f.runRepeats()
	}
	// Every message is a first one: the run is a stretch of the inbox.
	in, head := f.in, f.last+1
	last := head
	for last+1 < len(in) && bytes.Equal(in[last+1].Payload, in[head].Payload) {
		last++
	}
	f.head, f.last, f.count = head, last, last+1-head
	return head < len(in)
}

// runRepeats is Run over an inbox in which some sender repeats itself or
// the senders are out of order.
func (f *Firsts) runRepeats() bool {
	if !f.Next() {
		return false
	}
	in, p := f.in, f.in[f.head].Payload
	for j := f.after(f.last); j < len(in) && bytes.Equal(in[j].Payload, p); j = f.after(j) {
		f.last = j
		f.count++
	}
	return true
}

// Message is the first message Next or Run moved to.
func (f *Firsts) Message() Message { return f.in[f.head] }

// Count is the number of senders behind Message: the length of the run Run
// moved past, 1 after Next.
func (f *Firsts) Count() int { return f.count }

// Support is one distinct value of a round and the number of parties
// counted for it.
type Support struct {
	Value []byte
	Count int
}

// Tally is the paper's "received from ≥ k parties": the distinct values of
// one round with the number of parties behind each, ascending by
// bytes.Compare. A protocol Adds the decoded value of each sender's first
// message as Firsts walks them (a message naming two values adds both), or
// of each run of byte-equal messages at once with the run's length, and
// picks by Count; the order makes "the smallest such value" the first
// match. Values are borrowed, normally from the inbox: one that outlives
// the next Exchange is cloned by whoever keeps it. A round in which the
// parties agree costs the one-element slice.
type Tally []Support

// Add counts c more parties for v. The last entry is tried first: the
// parties of a round mostly send one value, and it is the largest so far.
func (t *Tally) Add(v []byte, c int) {
	k := len(*t)
	if k > 0 {
		switch last := &(*t)[k-1]; bytes.Compare(last.Value, v) {
		case 0:
			last.Count += c
			return
		case 1:
			var found bool
			k, found = slices.BinarySearchFunc((*t)[:k-1], v, func(s Support, v []byte) int { return bytes.Compare(s.Value, v) })
			if found {
				(*t)[k].Count += c
				return
			}
		}
	}
	// append and shift rather than slices.Insert, whose growth costs one
	// allocation more under -race: append grows the same in both builds.
	*t = append(*t, Support{})
	copy((*t)[k+1:], (*t)[k:])
	(*t)[k] = Support{Value: v, Count: c}
}

// LaneTallies is Tally asked of the k = len(tallies) lanes of a round of
// lane frames (wire.Lanes) at once: it empties every tally and, for each
// run of byte-equal first messages (Firsts.Run), hands lane l of the
// run's first message and the run's length to add(&tallies[l], entry, c).
// A message that is not a k-lane frame counts for nothing in any lane;
// otherwise lane l's tally reads lane l's entries only, so its values
// borrow the first message of their run. entries is the caller's scratch,
// k long: it holds the last run's entries when LaneTallies returns. The
// containers belong to the caller's work set (ba.Work), which refills them
// round after round.
func LaneTallies(in []Message, tallies []Tally, entries [][]byte, add func(t *Tally, entry []byte, c int)) {
	for l := range tallies {
		tallies[l] = tallies[l][:0]
	}
	for f := FirstsOf(in); f.Run(); {
		if wire.SplitLanes(f.Message().Payload, entries) {
			for l, e := range entries {
				add(&tallies[l], e, f.Count())
			}
		}
	}
}

// AddOption is LaneTallies' rule for lanes of option frames: a present
// value counts c times, ⊥ and anything else nothing.
func AddOption(t *Tally, entry []byte, c int) {
	if v, ok := wire.Option(entry); ok {
		t.Add(v, c)
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
// for that bit and every other lane (⊥, garbage) for nothing. A run of
// byte-equal messages is read once and counts its length.
func (v LaneVotes) Count(in []Message) {
	clear(v)
	for f := FirstsOf(in); f.Run(); {
		p := f.Message().Payload
		if !isLanes(p, len(v)) {
			continue
		}
		for l := range v {
			if b := lane(p, l); b <= 1 {
				v[l][b] += f.Count()
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

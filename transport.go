package convexagreement

import (
	"fmt"
	"math/big"
	"net"
	"time"

	"convexagreement/internal/channet"
	"convexagreement/internal/tcpnet"
	"convexagreement/internal/transport"
)

// Packet is an outgoing message: Payload addressed to party To (an int,
// 0 ≤ To < N; out-of-range packets are dropped), labelled with Tag, a
// protocol label used for cost attribution that transports may ignore. It
// is the same type the protocols are written against, so packets cross the
// public API without conversion.
type Packet = transport.Packet

// Message is a delivered packet: Payload as sent, From the authenticated
// sender index (an int, 0 ≤ From < N). Payload is borrowed from the
// transport; see Transport for how long it may be read.
type Message = transport.Message

// Transport is one party's handle to a synchronous network, the deployment
// counterpart of the paper's model (§2): n parties, authenticated
// pairwise channels, lock-step rounds with a known delay bound Δ. Its
// method set is
//
//	ID() int // this party's index, 0 ≤ ID < N
//	N() int  // the number of parties
//	T() int  // the corruption budget t < n/3
//	Exchange(out []Packet) ([]Message, error)
//
// so a custom transport declared with exactly these methods keeps
// compiling. Exchange submits this party's packets for the current round
// and blocks until the round closes (all peers delivered or Δ elapsed),
// returning the received messages. Implementations must deliver messages
// sorted by sender and stamp From truthfully.
//
// Payload lifetime: the messages Exchange returns are read-only and valid
// until the next Exchange or Close on that Transport (a TCPTransport
// delivers out of pooled frames it reuses); whoever keeps or forwards a
// payload past that call copies it first. The returned slice lives exactly
// as long as the payloads in it — a transport may hand out an inbox it
// refills next round — and in the other direction an implementation is
// done with out when Exchange returns: it must retain neither the slice
// nor the payload bytes it points to (copy or encode them before
// returning), because callers refill one out slice and rewrite their send
// buffers round after round. An implementation that delivers a sender's
// payload to its receivers by reference must copy it instead.
type Transport = transport.Net

// RunParty executes one party's side of the selected protocol over the
// given transport. Every party of the cluster must call RunParty in the
// same round with the same protocol and width. It blocks for the duration
// of the protocol (O(n log n) rounds of the transport's Δ for
// ProtoOptimal) and returns the agreed value.
func RunParty(tr Transport, protocol Protocol, width int, input *big.Int) (*big.Int, error) {
	return runParty(tr, agreeCall(protocol, width), input)
}

// RunPartyApprox executes one party's side of synchronous Approximate
// Agreement over the given transport; the deployment counterpart of
// ApproxAgree.
func RunPartyApprox(tr Transport, input, diameterBound, epsilon *big.Int) (*big.Int, error) {
	return runParty(tr, call{protocol: protoApprox, diam: diameterBound, eps: epsilon}, input)
}

// runParty validates one party's call against its transport and runs it on
// a work set sharedSets lends, returned when the run ends, failed or not.
func runParty(tr Transport, c call, input *big.Int) (*big.Int, error) {
	if tr == nil {
		return nil, fmt.Errorf("%w: nil transport", ErrOptions)
	}
	run, err := c.validate(tr.N(), []*big.Int{input})
	if err != nil {
		return nil, err
	}
	return run(tr, input)
}

// TCPConfig configures DialTCP.
type TCPConfig struct {
	// ID is this party's index into Addrs.
	ID int
	// Addrs lists all parties' listen addresses in party order.
	Addrs []string
	// T is the corruption budget; defaults to ⌊(n−1)/3⌋.
	T int
	// Delta is the synchrony bound per round (default 2s).
	Delta time.Duration
	// DialTimeout bounds mesh establishment (default 10s).
	DialTimeout time.Duration
	// ReconnectAttempts bounds re-dials of a broken link before the peer
	// is demoted to silent for the run. 0 means the default (5); DialTCP
	// refuses a negative value.
	ReconnectAttempts int
	// ReconnectBase is the first reconnect backoff, doubling per attempt
	// with jitter (default 50ms).
	ReconnectBase time.Duration
	// Listener optionally supplies a pre-bound listener for Addrs[ID].
	Listener net.Listener
	// ResumeRound is the absolute round this party starts at — zero for a
	// fresh party; a party restarted from a checkpoint passes the NextRound
	// reported by InspectState so the rejoin handshake can announce where
	// it resumes and peers can replay their buffered outbox tails.
	ResumeRound uint64
	// RejoinWindow is how many recent rounds of outgoing frames this party
	// buffers per peer to serve rejoining peers. 0 means the default
	// (128); DialTCP refuses a negative value.
	RejoinWindow int
}

// TCPTransport is a Transport over a TCP full mesh (see internal/tcpnet for
// the round-synchronization semantics). Close it when done.
type TCPTransport struct {
	conn *tcpnet.Conn
}

// DialTCP establishes the TCP mesh for one party; all parties must call it
// with consistent configurations. It blocks until every pairwise connection
// is up.
func DialTCP(cfg TCPConfig) (*TCPTransport, error) {
	if cfg.T == 0 && len(cfg.Addrs) > 0 {
		cfg.T = (len(cfg.Addrs) - 1) / 3
	}
	conn, err := tcpnet.Dial(tcpnet.Config{
		ID:                cfg.ID,
		Addrs:             cfg.Addrs,
		T:                 cfg.T,
		Delta:             cfg.Delta,
		DialTimeout:       cfg.DialTimeout,
		ReconnectAttempts: cfg.ReconnectAttempts,
		ReconnectBase:     cfg.ReconnectBase,
		Listener:          cfg.Listener,
		ResumeRound:       cfg.ResumeRound,
		RejoinWindow:      cfg.RejoinWindow,
	})
	if err != nil {
		return nil, err
	}
	return &TCPTransport{conn: conn}, nil
}

// ID implements Transport.
func (t *TCPTransport) ID() int { return t.conn.ID() }

// N implements Transport.
func (t *TCPTransport) N() int { return t.conn.N() }

// T implements Transport.
func (t *TCPTransport) T() int { return t.conn.T() }

// Exchange implements Transport.
func (t *TCPTransport) Exchange(out []Packet) ([]Message, error) { return t.conn.Exchange(out) }

// Faulty returns the peers this party demoted to silent for the run —
// caught violating the framing protocol or unreachable after all reconnect
// attempts — ordered by party id.
func (t *TCPTransport) Faulty() []int { return t.conn.Faulty() }

// Demotions tallies this party's peer demotions by structured reason
// ("budget", "rate", "stall", "protocol", "handshake", "unreachable").
// A nonzero "rate" or "budget" count is the overload signal: the mesh is
// under active resource attack, not merely flaky. Feed it to a supervisor
// via Attempt.ReportDemotions so terminal health reports carry it.
func (t *TCPTransport) Demotions() map[string]int {
	s := t.conn.Stats()
	if len(s.Demotions) == 0 {
		return nil
	}
	out := make(map[string]int, len(s.Demotions))
	for _, d := range s.Demotions {
		out[d.Reason.String()]++
	}
	return out
}

// FrontierGap reports how many rounds ahead of this party's ResumeRound the
// mesh was when it (re)joined — the restart-to-rejoin latency in rounds.
func (t *TCPTransport) FrontierGap() uint64 { return t.conn.FrontierGap() }

// Close tears down the mesh.
func (t *TCPTransport) Close() error { return t.conn.Close() }

// LocalTransport is an in-process Transport (package channet, which runs
// the simulator's round engine with every party honest): n parties hosted
// in one binary exchange rounds at memory speed. Useful for embedding,
// demos, and tests that do not need the simulator's adversaries or the TCP
// mesh.
type LocalTransport struct {
	conn *channet.Conn
}

var _ Transport = (*LocalTransport)(nil)

// NewLocalCluster creates n connected in-process transports with corruption
// budget t (default ⌊(n−1)/3⌋ when t = 0). Each returned transport must be
// driven by its own goroutine; call Close on a transport when its party is
// done so the others' rounds keep closing.
func NewLocalCluster(n, t int) ([]*LocalTransport, error) {
	if t == 0 && n > 1 {
		t = (n - 1) / 3
	}
	hub, err := channet.NewHub(n, t)
	if err != nil {
		return nil, err
	}
	out := make([]*LocalTransport, n)
	for i := 0; i < n; i++ {
		conn, err := hub.Net(i)
		if err != nil {
			return nil, err
		}
		out[i] = &LocalTransport{conn: conn}
	}
	return out, nil
}

// ID implements Transport.
func (l *LocalTransport) ID() int { return l.conn.ID() }

// N implements Transport.
func (l *LocalTransport) N() int { return l.conn.N() }

// T implements Transport.
func (l *LocalTransport) T() int { return l.conn.T() }

// Exchange implements Transport.
func (l *LocalTransport) Exchange(out []Packet) ([]Message, error) { return l.conn.Exchange(out) }

// Close retires this party from the cluster.
func (l *LocalTransport) Close() error {
	l.conn.Leave()
	return nil
}

package tcpnet_test

// The raw-socket half of the ingress battery (tcpnet_attack_test.go is its
// only user): seeded attackers that speak raw TCP at a victim's listener
// and try to make it spend memory, CPU, or round time it never owed them
// (DESIGN.md §2.10) — every defense in internal/wire admission and
// internal/tcpnet exists to make one of these attacks provably unprofitable:
//
//   - floodAttack: max-rate storms of individually legal frames, defeated by
//     the round-clock token bucket (demotion with ReasonRate).
//   - oversizeStorm: hostile length fields announcing bodies beyond any
//     budget, defeated on the prefix alone before a byte is pooled
//     (ReasonBudget, or ReasonProtocol past the structural cap).
//   - slowLoris: a legal frame announced and then trickled byte-at-a-time,
//     defeated by the read-progress deadline (ReasonStall).
//   - helloStorm: reconnect-handshake churn from an unauthenticated
//     dialer, defeated by the per-host hello cap (Stats.HellosRejected).
//
// Attackers are deliberately simple, blocking functions: they run until
// the victim cuts the connection (the defense firing is the attack's
// normal exit), a terminal error, or the stop channel closes. Payload
// bytes are drawn from a caller-seeded local generator so a battery run
// is reproducible. The simulator- and hub-level resource adversaries are
// internal/adversary's Attack builders.

import (
	"encoding/binary"
	"math/rand"
	"net"
	"time"

	"convexagreement/internal/wire"
)

// attackTarget identifies one victim listener and the identity the attacker
// claims in the pre-frame hello.
type attackTarget struct {
	// Addr is the victim's listen address.
	Addr string
	// ID is the party id announced in the hello. A battery typically
	// claims a real in-range id so the attack lands on an authenticated
	// link; helloStorm probes the unauthenticated path regardless.
	ID int
	// Round is the round announced in the hello (0 for a fresh link).
	Round uint64
}

// attackReport summarizes one attack run.
type attackReport struct {
	// Conns counts TCP connections successfully opened.
	Conns int
	// Accepted counts handshakes the victim answered with its own hello.
	Accepted int
	// Frames counts complete frames (or hostile prefixes) written.
	Frames int
	// Bytes counts payload bytes that reached the victim's socket.
	Bytes int64
	// Err is the terminal error — for a successful attack run this is the
	// victim cutting the connection, which is the defense working.
	Err error
}

// dialTimeout bounds every blocking socket step of an attacker, so a
// misbehaving victim cannot wedge the battery.
const dialTimeout = 5 * time.Second

// handshake opens a connection to the target and completes the
// bidirectional (id, round) hello.
func handshake(tg attackTarget) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", tg.Addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	if err := conn.SetDeadline(time.Now().Add(dialTimeout)); err != nil {
		conn.Close()
		return nil, err
	}
	hello := binary.AppendUvarint(nil, uint64(tg.ID))
	hello = binary.AppendUvarint(hello, tg.Round)
	if _, err := conn.Write(hello); err != nil {
		conn.Close()
		return nil, err
	}
	if _, err := wire.ReadUvarint(conn); err != nil { // victim's id
		conn.Close()
		return nil, err
	}
	if _, err := wire.ReadUvarint(conn); err != nil { // victim's round
		conn.Close()
		return nil, err
	}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

func stopped(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// floodAttack handshakes as tg.ID and pumps individually legal frames at the
// victim as fast as the socket accepts them, cycling round numbers so the
// frames parse and dedup like real traffic. It returns when the victim
// cuts the connection (rate demotion — the expected outcome), on another
// terminal error, or when stop closes.
func floodAttack(tg attackTarget, seed int64, stop <-chan struct{}) attackReport {
	var rep attackReport
	conn, err := handshake(tg)
	if err != nil {
		rep.Err = err
		return rep
	}
	defer conn.Close()
	rep.Conns, rep.Accepted = 1, 1
	rng := rand.New(rand.NewSource(seed))
	payload := make([]byte, 512)
	for r := uint64(0); !stopped(stop); r++ {
		rng.Read(payload)
		frame := new(wire.Arena).EncodeFrame(r%16, [][]byte{payload}).Bytes()
		conn.SetWriteDeadline(time.Now().Add(dialTimeout))
		n, err := conn.Write(frame)
		rep.Bytes += int64(n)
		if err != nil {
			rep.Err = err
			return rep
		}
		rep.Frames++
	}
	return rep
}

// oversizeStorm handshakes as tg.ID and writes hostile length prefixes:
// bodies announced far beyond any per-frame budget (and, one attempt in
// four, beyond the structural 64 MiB cap). The victim must refuse each on
// the prefix alone; the attack ends when it does.
func oversizeStorm(tg attackTarget, seed int64, stop <-chan struct{}) attackReport {
	var rep attackReport
	conn, err := handshake(tg)
	if err != nil {
		rep.Err = err
		return rep
	}
	defer conn.Close()
	rep.Conns, rep.Accepted = 1, 1
	rng := rand.New(rand.NewSource(seed))
	junk := make([]byte, 4096)
	for !stopped(stop) {
		size := uint64(4<<20) + uint64(rng.Int63n(4<<20))
		if rng.Intn(4) == 0 {
			size = (64 << 20) + 1 + uint64(rng.Int63n(1<<20))
		}
		hdr := binary.AppendUvarint(nil, size)
		rng.Read(junk)
		conn.SetWriteDeadline(time.Now().Add(dialTimeout))
		n, err := conn.Write(append(hdr, junk...))
		rep.Bytes += int64(n)
		if err != nil {
			rep.Err = err
			return rep
		}
		rep.Frames++
	}
	return rep
}

// slowLoris handshakes as tg.ID, announces one perfectly legal frame, and
// then trickles its body a byte at a time every interval — slow enough to
// be worthless, steady enough that a naive idle timeout never fires. The
// victim's read-progress deadline must classify this as a stall; the
// attack ends when the connection is cut.
func slowLoris(tg attackTarget, interval time.Duration, stop <-chan struct{}) attackReport {
	var rep attackReport
	conn, err := handshake(tg)
	if err != nil {
		rep.Err = err
		return rep
	}
	defer conn.Close()
	rep.Conns, rep.Accepted = 1, 1
	frame := new(wire.Arena).EncodeFrame(tg.Round, [][]byte{make([]byte, 1024)}).Bytes()
	for i := 0; i < len(frame); i++ {
		conn.SetWriteDeadline(time.Now().Add(dialTimeout))
		n, err := conn.Write(frame[i : i+1])
		rep.Bytes += int64(n)
		if err != nil {
			rep.Err = err
			return rep
		}
		select {
		case <-stop:
			return rep
		case <-time.After(interval):
		}
	}
	rep.Frames = 1 // the trickle outlived the victim's patience budget
	return rep
}

// helloStorm churns the victim's accept path: up to attempts sequential
// dial→hello→drop cycles from one host, never completing a useful link.
// The per-host hello cap must cut the storm off — Accepted stalls while
// the victim's HellosRejected counter grows.
func helloStorm(tg attackTarget, attempts int, stop <-chan struct{}) attackReport {
	var rep attackReport
	hello := binary.AppendUvarint(nil, uint64(tg.ID))
	hello = binary.AppendUvarint(hello, tg.Round)
	for i := 0; i < attempts && !stopped(stop); i++ {
		conn, err := net.DialTimeout("tcp", tg.Addr, dialTimeout)
		if err != nil {
			rep.Err = err
			return rep
		}
		rep.Conns++
		conn.SetDeadline(time.Now().Add(dialTimeout))
		if n, err := conn.Write(hello); err == nil {
			rep.Bytes += int64(n)
			if _, err := wire.ReadUvarint(conn); err == nil {
				rep.Accepted++
			}
		}
		conn.Close()
	}
	return rep
}

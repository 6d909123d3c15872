package channet_test

import (
	"testing"

	"convexagreement/internal/channet"
	"convexagreement/internal/transport"
)

// BenchmarkHubRound_n16 is one all-to-all round of an n = 16 hub per op:
// every party broadcasts 64 bytes from a fan-out it keeps, and the
// simulator's round close copies each broadcast once into the run's arena
// of that round's parity. The engine refills its inboxes and arenas, so
// once they have grown a round allocates nothing; ci.sh pins the row at 0.
func BenchmarkHubRound_n16(b *testing.B) {
	const n = 16
	hub, err := channet.NewHub(n, (n-1)/3)
	if err != nil {
		b.Fatal(err)
	}
	rounds := b.N
	fns := make([]func(net transport.Net) error, n)
	for i := range fns {
		payload := make([]byte, 64)
		fns[i] = func(net transport.Net) error {
			var fan []transport.Packet
			for r := 0; r < rounds; r++ {
				if _, err := transport.ExchangeAll(net, "bench", payload, &fan); err != nil {
					return err
				}
			}
			return nil
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := hub.Run(fns); err != nil {
		b.Fatal(err)
	}
}

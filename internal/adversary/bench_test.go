package adversary_test

import (
	"bytes"
	"testing"

	"convexagreement/internal/adversary"
	"convexagreement/internal/sim"
	"convexagreement/internal/transport"
)

// BenchmarkStrategyRound_n16 runs each catalogue strategy as the t = 5
// corrupt parties of an n = 16 simulation whose honest parties broadcast
// 64 bytes a round from a fan-out they keep: one op is one round, the
// scheduler's share included. A strategy keeps its scratch across rounds,
// so once it has grown every row reads 0 allocs/op.
func BenchmarkStrategyRound_n16(b *testing.B) {
	const n, t = 16, 5
	for _, s := range adversary.Catalog() {
		b.Run(s.Name, func(b *testing.B) {
			rounds := b.N
			parties := make([]sim.Party, n)
			for i := range parties {
				if i >= n-t {
					parties[i] = sim.Party{Corrupt: true, Behavior: s.Build(int64(i))}
					continue
				}
				payload := bytes.Repeat([]byte{byte(i)}, 64)
				parties[i] = sim.Party{Behavior: func(env *sim.Env) error {
					var fan []transport.Packet
					for r := 0; r < rounds; r++ {
						if _, err := transport.ExchangeAll(env, "bench", payload, &fan); err != nil {
							return err
						}
					}
					return nil
				}}
			}
			b.ResetTimer()
			if _, err := sim.Run(sim.Config{N: n, T: t, MaxRounds: rounds + 1}, parties); err != nil {
				b.Fatal(err)
			}
		})
	}
}

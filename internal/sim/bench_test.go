package sim

import (
	"testing"

	"convexagreement/internal/transport"
)

// BenchmarkRoundThroughput measures the scheduler's all-to-all round rate:
// the simulation overhead floor under every protocol benchmark.
func BenchmarkRoundThroughput_n16(b *testing.B) {
	benchRoundThroughput(b, 16, 5)
}

// BenchmarkRoundThroughput_n256 is the large-sweep regime where the paper's
// n²·log²n term dominates; round close must stay O(messages) per round, not
// O(n²) scan work, for this to scale.
func BenchmarkRoundThroughput_n256(b *testing.B) {
	benchRoundThroughput(b, 256, 85)
}

// BenchmarkRoundThroughput_n1024 is the zero-copy-era scale point: ~1M
// messages per all-to-all round. At this n the per-message constant is
// everything — the pooled wire path exists so this row stays flat in
// allocs while quadrupling n over the n256 row.
func BenchmarkRoundThroughput_n1024(b *testing.B) {
	benchRoundThroughput(b, 1024, 341)
}

func benchRoundThroughput(b *testing.B, n, t int) {
	b.Helper()
	payload := make([]byte, 64)
	parties := make([]Party, n)
	rounds := b.N
	for i := range parties {
		parties[i] = Party{Behavior: func(env *Env) error {
			var fan []transport.Packet // kept across rounds, as a protocol's work set does
			for r := 0; r < rounds; r++ {
				if _, err := transport.ExchangeAll(env, "bench", payload, &fan); err != nil {
					return err
				}
			}
			return nil
		}}
	}
	b.ResetTimer()
	if _, err := Run(Config{N: n, T: t, MaxRounds: rounds + 1}, parties); err != nil {
		b.Fatal(err)
	}
}

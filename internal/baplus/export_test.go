package baplus

import "convexagreement/internal/ba"

// Encoded is the number of stripes b's last call encoded, over all lanes.
func (b *Buffers) Encoded() int {
	if b.cs == nil {
		return 0
	}
	return b.cs.encoded
}

// PlusRounds returns ROUNDS(Π_BA+) for corruption budget t, at any number of
// lanes: the two rounds of lines 1–2, Turpin–Coan's two and one confirming
// phase-king, 4 + 18 at t = 5.
func PlusRounds(t int) int {
	return 4 + ba.BinaryRounds(t)
}

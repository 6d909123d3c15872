package baplus

// Encoded is the number of stripes b's last call encoded, over all lanes.
func (b *Buffers) Encoded() int {
	if b.cs == nil {
		return 0
	}
	return b.cs.encoded
}

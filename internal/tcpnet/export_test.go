package tcpnet

// ReadBufferSize is the per-link read buffer, for the payload-size rows
// that straddle it.
const ReadBufferSize = readBufferSize

// SharedFrame reports whether round r went out as one frame shared by every
// peer, while the rejoin tail still holds the round.
func (c *Conn) SharedFrame(r uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	slot := &c.tails[r%uint64(len(c.tails))]
	return slot.round == r && slot.shared != nil
}

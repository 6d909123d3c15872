package channet

// Rounds is the number of rounds h has closed.
func Rounds(h *Hub) int { return h.run.Report().Rounds }

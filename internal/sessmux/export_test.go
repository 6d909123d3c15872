package sessmux

// MuxStats reads the counters of the mux behind s, for tests that reach a
// session only through Parallel.
func MuxStats(s *Session) Stats { return s.m.Stats() }

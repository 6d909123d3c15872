package convexagreement

import "convexagreement/internal/core"

// SetLendHook has f see every work set sm lends (lent) and takes back
// (!lent), under the mux's lock. Set it before the mux runs anything.
func SetLendHook(sm *SessionMux, f func(b *core.Buffers, lent bool)) { sm.lent = f }

// SetsHeld is the number of returned work sets sm holds for its next runs.
func SetsHeld(sm *SessionMux) int {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	return len(sm.sets)
}

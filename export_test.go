package convexagreement

import "convexagreement/internal/core"

// SetLendHook has f see every work set sm lends (lent) and takes back
// (!lent), under the mux's lock. Set it before the mux runs anything.
func SetLendHook(sm *SessionMux, f func(b *core.Buffers, lent bool)) { sm.sets.hook(f) }

// SetsHeld is the number of returned work sets sm holds for its next runs.
func SetsHeld(sm *SessionMux) int { return sm.sets.held() }

// SetSharedLendHook has f see every work set the package-level lender
// lends and takes back, as SetLendHook does for a mux; nil removes it.
func SetSharedLendHook(f func(b *core.Buffers, lent bool)) { sharedSets.hook(f) }

// SharedSetsHeld is the number of returned work sets the package-level
// lender holds.
func SharedSetsHeld() int { return sharedSets.held() }

func (w *workSets) hook(f func(b *core.Buffers, lent bool)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.lent = f
}

func (w *workSets) held() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.sets)
}

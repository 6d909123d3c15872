package convexagreement

import "convexagreement/internal/core"

// SetSharedLendHook has f see every work set the package-level lender
// lends (lent) and takes back (!lent), under the lender's lock; nil
// removes it.
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

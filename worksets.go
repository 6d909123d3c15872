package convexagreement

import (
	"sync"

	"convexagreement/internal/core"
)

// workSets lends protocol work sets (core.Buffers) to party runs. A run
// gives its set back when it ends, failed or not, and the set is Reset
// then; the next run is lent a returned set before a new one is made, so
// the lender holds no more sets than it has had runs live at once.
// sharedSets is the package's one lender.
type workSets struct {
	mu   sync.Mutex
	sets []*core.Buffers // returned sets, lent again before a new one is made
	// lent, when set, sees every set lent (true) and returned (false),
	// under mu; tests watch the lending through it.
	lent func(b *core.Buffers, out bool)
}

// lend hands a run a work set: a returned one, else a new one.
func (w *workSets) lend() *core.Buffers {
	w.mu.Lock()
	defer w.mu.Unlock()
	var b *core.Buffers
	if k := len(w.sets); k > 0 {
		b, w.sets[k-1] = w.sets[k-1], nil
		w.sets = w.sets[:k-1]
	} else {
		b = new(core.Buffers)
	}
	if w.lent != nil {
		w.lent(b, true)
	}
	return b
}

// giveBack ends a run's use of b, which the next lend may hand out.
func (w *workSets) giveBack(b *core.Buffers) {
	b.Reset()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.lent != nil {
		w.lent(b, false)
	}
	w.sets = append(w.sets, b)
}

// sharedSets lends the work sets of every party run: each simulated party
// of Agree, AgreeVector and ApproxAgree (a ghost's honest run and each
// vector coordinate included), and each RunParty and RunPartyApprox. A
// party gives its set back when its run returns: every transport is done
// with a round's payloads when its Exchange returns (transport.Net), so
// nothing reads the set once its run is over. It is package-level because
// those entry points keep no state between calls; it stands where a
// sync.Pool would, holding whole sets that survive a GC.
var sharedSets workSets

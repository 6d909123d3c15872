package convexagreement

import (
	"sync"

	"convexagreement/internal/core"
)

// workSets lends protocol work sets (core.Buffers) to party runs. A run
// gives its set back when it ends, failed or not, and the set is Reset
// then; the next run is lent a returned set before a new one is made, so
// the lender holds no more sets than it has had runs live at once. A
// SessionMux keeps one for the runs over its transports; sharedSets is the
// package's.
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

// sharedSets lends the sets of every simulated party of Agree, AgreeVector
// and ApproxAgree (a ghost's honest run included), through a lease per
// simulated run, and of RunParty and RunPartyApprox over a TCPTransport. It
// is package-level because those entry points keep no state between calls;
// it stands where a sync.Pool would, holding whole sets that survive a GC.
var sharedSets workSets

// lease lends sharedSets' sets to the parties of one simulated run and
// gives them all back only when the whole run is over. A party's last
// payloads stay in its set after it returns — an in-process network
// delivers them by reference — and its receivers may still be reading them;
// returned at once, the set could be lent to a party of another run and
// rewritten, and nothing orders two runs' rounds. Once sim.Run has
// returned, every party of the run has.
type lease struct {
	mu   sync.Mutex
	sets []*core.Buffers
}

// lend lends a set for the rest of l's run.
func (l *lease) lend() *core.Buffers {
	b := sharedSets.lend()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sets = append(l.sets, b)
	return b
}

// end gives back every set l lent. The run must be over.
func (l *lease) end() {
	for _, b := range l.sets {
		sharedSets.giveBack(b)
	}
}

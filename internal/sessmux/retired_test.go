package sessmux

import (
	"testing"

	"convexagreement/internal/transport"
)

// idleNet is a one-party base whose rounds deliver nothing.
type idleNet struct{}

func (idleNet) ID() transport.PartyID { return 0 }
func (idleNet) N() int                { return 1 }
func (idleNet) T() int                { return 0 }
func (idleNet) Exchange([]transport.Packet) ([]transport.Message, error) {
	return nil, nil
}

// TestRetiredSetStaysBounded opens and closes 10⁵ ascending sids with a
// sliding window of live sessions and checks that the single-use-sid
// memory stays O(live) — one entry per session ever run is a leak of
// millions of entries a day on a busy mesh — while every retired sid is
// still refused. The sequence starts at sid 1, as the repo's own load
// generators do: the never-used sid 0 must not pin the watermark.
func TestRetiredSetStaysBounded(t *testing.T) {
	const total, live = 100_000, 64
	m := New(idleNet{})
	pacer, err := m.Open(1, 1, 0) // long-lived, as bench's mux_open pacer is
	if err != nil {
		t.Fatal(err)
	}
	window := make([]*Session, 0, live)
	peak := 0
	for sid := uint64(2); sid < total; sid++ {
		s, err := m.Open(sid, 1, 0)
		if err != nil {
			t.Fatalf("open %d: %v", sid, err)
		}
		window = append(window, s)
		if len(window) == live {
			// Close out of order (newest first) so the set has real work.
			for i := len(window) - 1; i >= 0; i-- {
				window[i].Close()
			}
			window = window[:0]
		}
		peak = max(peak, len(m.retired))
	}
	if peak > retiredWindow+1 {
		t.Errorf("retired set peaked at %d entries, bound is %d", peak, retiredWindow+1)
	}
	if got := len(m.retired); got > live {
		t.Errorf("retired set holds %d entries after the gap was jumped, want at most %d (live)", got, live)
	}
	for _, s := range window {
		s.Close()
	}
	pacer.Close()
	for _, sid := range []uint64{1, 2, 63, 64, 1000, total / 2, total - 1} {
		if _, err := m.Open(sid, 1, 0); err == nil {
			t.Errorf("retired sid %d was reopened", sid)
		}
	}
	if _, err := m.Open(total, 1, 0); err != nil {
		t.Errorf("fresh sid refused: %v", err)
	}
}

// TestClosedInboxReused: a closed session's inbox array goes, cleared, to
// the next Open, which then allocates only the Session; the closed handle
// still reads ErrClosed and keeps no view of the array.
func TestClosedInboxReused(t *testing.T) {
	m := New(idleNet{})
	old, err := m.Open(1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	old.inbox = append(old.inbox, transport.Message{Payload: []byte("stale")})
	array := &old.inbox[:1][0]
	old.Close()
	s, err := m.Open(2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := &s.inbox[:1][0]; got != array || len(s.inbox) != 0 || got.Payload != nil {
		t.Errorf("Open got a fresh or uncleared inbox (same array %v, len %d)", got == array, len(s.inbox))
	}
	if old.inbox != nil {
		t.Error("the closed handle still views the inbox it gave up")
	}
	if _, err := old.Exchange(nil); err != ErrClosed {
		t.Errorf("Exchange on the closed handle = %v, want ErrClosed", err)
	}
	s.Close()
	sid := uint64(3)
	if allocs := testing.AllocsPerRun(100, func() {
		s, _ := m.Open(sid, 1, 0)
		s.Close()
		sid++
	}); allocs > 1 {
		t.Errorf("Open+Close allocates %.1f times, want 1 (the Session)", allocs)
	}
}

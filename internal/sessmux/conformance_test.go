package sessmux_test

import (
	"testing"

	"convexagreement/internal/channet"
	"convexagreement/internal/sessmux"
	"convexagreement/internal/transport"
	"convexagreement/internal/transporttest"
)

// TestConformance holds a Session to the transport.Net contract like any
// other Net: every party muxes one session over its channet handle and the
// battery drives the session. That puts the session's reused inbox and
// fan-out under the out-reuse check (the mux keeps the out slice until the
// tick flushes — inside the call, never past it) and checks its
// ExchangeBroadcast against Exchange(Broadcast(…)).
func TestConformance(t *testing.T) {
	transporttest.Conformance(t, func(t *testing.T, n, tc int, fns []func(net transport.Net) error) {
		t.Helper()
		hub, err := channet.NewHub(n, tc)
		if err != nil {
			t.Fatal(err)
		}
		wrapped := make([]func(net transport.Net) error, n)
		for i, fn := range fns {
			wrapped[i] = func(base transport.Net) error {
				return runSession(sessmux.New(base), 1, n, tc, fn)
			}
		}
		if err := hub.Run(wrapped); err != nil {
			t.Fatal(err)
		}
	})
}

package main

import (
	"bytes"
	"io"
	"math/big"
	"net"
	"strings"
	"testing"

	"convexagreement/internal/checkpoint"
)

// freeAddrs returns n loopback addresses nothing listens on.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return addrs
}

// TestSupervisedRestartWithoutT restarts a supervised party without -t on
// the state directory of a completed run. Its session recorded the
// budget its mesh resolved, t = ⌊(n−1)/3⌋ = 1 at n = 4; the restart must
// check the directory against that same budget and resume from it rather
// than reject it as another mesh's state (exit 5). No peer is up, so the
// resumed attempt ends at the dial.
func TestSupervisedRestartWithoutT(t *testing.T) {
	dir := t.TempDir()
	log, _, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.AppendMeta(4, 1); err != nil {
		t.Fatal(err)
	}
	if err := log.AppendInstance(&checkpoint.Instance{Kind: checkpoint.KindAgree, Protocol: "optimal", Input: big.NewInt(5)}); err != nil {
		t.Fatal(err)
	}
	if err := log.AppendRound(nil); err != nil {
		t.Fatal(err)
	}
	if err := log.AppendEnd(big.NewInt(5)); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	var logged bytes.Buffer
	code := run([]string{
		"-id", "0", "-addrs", strings.Join(freeAddrs(t, 4), ","), "-input", "5",
		"-supervised", "-statedir", dir, "-instances", "2",
		"-dial-timeout", "200ms", "-max-restarts", "1",
	}, io.Discard, &logged)
	if code == 5 || !strings.Contains(logged.String(), "resuming at instance 1") {
		t.Fatalf("restart without -t exited %d:\n%s", code, logged.String())
	}
}

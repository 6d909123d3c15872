package main

import (
	"bytes"
	"io"
	"math/big"
	"net"
	"strconv"
	"strings"
	"sync"
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

// TestRerunOnCompletedStatePrintsNoNil runs a 4-party supervised cluster
// of two instances to completion, then runs it again on the same state
// directories. The rerun agrees on nothing new: each party prints instance
// 1's output, which its WAL's live slot holds, equal to the first run's,
// names instance 0 on stderr — its slot was switched past, so neither the
// process nor the WAL holds its output — and never prints <nil>.
func TestRerunOnCompletedStatePrintsNoNil(t *testing.T) {
	const n = 4
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = t.TempDir()
	}
	cluster := func() ([]string, []string) {
		addrs := strings.Join(freeAddrs(t, n), ",")
		stdouts, stderrs := make([]bytes.Buffer, n), make([]bytes.Buffer, n)
		codes := make([]int, n)
		var wg sync.WaitGroup
		for i := range n {
			wg.Add(1)
			go func() {
				defer wg.Done()
				codes[i] = run([]string{
					"-id", strconv.Itoa(i), "-addrs", addrs, "-input", strconv.Itoa(10 + 7*i),
					"-supervised", "-statedir", dirs[i], "-instances", "2",
					"-dial-timeout", "5s", "-max-restarts", "1",
				}, &stdouts[i], &stderrs[i])
			}()
		}
		wg.Wait()
		outs, logs := make([]string, n), make([]string, n)
		for i := range n {
			if codes[i] != 0 {
				t.Fatalf("party %d exited %d:\n%s", i, codes[i], stderrs[i].String())
			}
			outs[i], logs[i] = stdouts[i].String(), stderrs[i].String()
		}
		return outs, logs
	}
	first, _ := cluster()
	again, logs := cluster()
	for i := range n {
		lines := strings.Split(strings.TrimSpace(first[i]), "\n")
		if len(lines) != 2 {
			t.Fatalf("party %d: first run printed %q, want two outputs", i, first[i])
		}
		if strings.Contains(again[i], "<nil>") {
			t.Errorf("party %d: rerun printed %q", i, again[i])
		}
		if got := strings.TrimSpace(again[i]); got != lines[1] {
			t.Errorf("party %d: rerun printed %q, want instance 1's output %q", i, got, lines[1])
		}
		if !strings.Contains(logs[i], "no output held for instances [0]") {
			t.Errorf("party %d: rerun does not name instance 0:\n%s", i, logs[i])
		}
	}
}

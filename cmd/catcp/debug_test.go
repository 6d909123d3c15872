package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// meshUpHook is party 0's stderr in the debug tests: it keeps the log and,
// when the party logs that its mesh is up (or, if trigger is set, a line
// containing trigger), calls onMeshUp with the debug server's address
// (empty if none was logged) before the party goes on — so onMeshUp looks
// at a party whose transport is live.
type meshUpHook struct {
	mu       sync.Mutex
	log      bytes.Buffer
	addr     string
	trigger  string
	onMeshUp func(debugAddr string)
}

func (h *meshUpHook) Write(p []byte) (int, error) {
	h.mu.Lock()
	h.log.Write(p)
	line := string(p)
	if a, ok := strings.CutPrefix(line, "catcp: debug server on "); ok {
		h.addr = strings.TrimSpace(a)
	}
	addr := h.addr
	h.mu.Unlock()
	trigger := h.trigger
	if trigger == "" {
		trigger = "mesh up"
	}
	if strings.Contains(line, trigger) {
		h.onMeshUp(addr)
	}
	return len(p), nil
}

// runCluster runs a 4-party cluster of one agreement; party 0 gets extra
// flags and logs to hook. It returns the mesh addresses.
func runCluster(t *testing.T, hook *meshUpHook, extra ...string) []string {
	t.Helper()
	const n = 4
	addrs := freeAddrs(t, n)
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			args := []string{"-id", strconv.Itoa(i), "-addrs", strings.Join(addrs, ","), "-input", strconv.Itoa(10 + i), "-dial-timeout", "5s"}
			var stderr io.Writer = io.Discard
			if i == 0 {
				args, stderr = append(args, extra...), hook
			}
			codes[i] = run(args, io.Discard, stderr)
		}()
	}
	wg.Wait()
	for i, code := range codes {
		if code != 0 {
			t.Fatalf("party %d exited %d; party 0 logged:\n%s", i, code, hook.log.String())
		}
	}
	return addrs
}

// listeningPorts is the TCP ports this process listens on: its socket
// descriptors matched against the kernel's tables of listening sockets. It
// runs on a party's goroutine, so it reports rather than skips.
func listeningPorts() (map[int]bool, error) {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return nil, err
	}
	mine := map[string]bool{}
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil {
			if inode, ok := strings.CutPrefix(target, "socket:["); ok {
				mine[strings.TrimSuffix(inode, "]")] = true
			}
		}
	}
	ports := map[int]bool{}
	for _, table := range []string{"/proc/self/net/tcp", "/proc/self/net/tcp6"} {
		f, err := os.Open(table)
		if err != nil {
			continue
		}
		sc := bufio.NewScanner(f)
		sc.Scan() // the header
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) < 10 || fields[3] != "0A" || !mine[fields[9]] { // 0A: LISTEN
				continue
			}
			_, hexPort, _ := strings.Cut(fields[1], ":")
			if port, err := strconv.ParseInt(hexPort, 16, 32); err == nil {
				ports[int(port)] = true
			}
		}
		f.Close()
	}
	return ports, nil
}

// portOf is the port of a host:port address.
func portOf(t *testing.T, addr string) int {
	t.Helper()
	_, p, err := net.SplitHostPort(addr)
	if err != nil {
		t.Fatal(err)
	}
	port, err := strconv.Atoi(p)
	if err != nil {
		t.Fatal(err)
	}
	return port
}

// TestDebugVars: with -debug-addr a party serves expvar and pprof while it
// runs, /debug/vars carries the transport's demotions, faulty peers and
// frontier gap and the health key, and the debug listener is one of the
// process's listening sockets.
func TestDebugVars(t *testing.T) {
	var vars map[string]json.RawMessage
	var pprofStatus int
	var listening map[int]bool
	var fetchErr, procErr error
	hook := &meshUpHook{onMeshUp: func(addr string) {
		listening, procErr = listeningPorts()
		if addr == "" {
			fetchErr = fmt.Errorf("no debug server logged")
			return
		}
		resp, err := http.Get("http://" + addr + "/debug/vars")
		if err != nil {
			fetchErr = err
			return
		}
		defer resp.Body.Close()
		fetchErr = json.NewDecoder(resp.Body).Decode(&vars)
		if resp, err := http.Get("http://" + addr + "/debug/pprof/"); err == nil {
			pprofStatus = resp.StatusCode
			resp.Body.Close()
		}
	}}
	runCluster(t, hook, "-debug-addr", "127.0.0.1:0")
	if fetchErr != nil {
		t.Fatalf("fetching /debug/vars: %v\n%s", fetchErr, hook.log.String())
	}
	for _, key := range []string{varDemotions, varFaulty, varFrontierGap, varHealth, "memstats"} {
		if _, ok := vars[key]; !ok {
			t.Errorf("/debug/vars has no %q", key)
		}
	}
	if string(vars[varFrontierGap]) != "0" || string(vars[varFaulty]) == "null" {
		t.Errorf("a live mesh's frontier gap %s, faulty peers %s; want 0 and a list", vars[varFrontierGap], vars[varFaulty])
	}
	if pprofStatus != http.StatusOK {
		t.Errorf("/debug/pprof/ answered %d", pprofStatus)
	}
	if procErr != nil {
		t.Skipf("no /proc/self to list listening sockets: %v", procErr)
	}
	if !listening[portOf(t, hook.addr)] {
		t.Errorf("debug address %s is not among the process's listening ports %v", hook.addr, listening)
	}
}

// TestDebugHealthSupervised: a supervised party publishes the health line
// of its attempt in progress, as the supervisor would report it now.
func TestDebugHealthSupervised(t *testing.T) {
	var health string
	var fetchErr error
	hook := &meshUpHook{trigger: "dialing mesh", onMeshUp: func(addr string) {
		resp, err := http.Get("http://" + addr + "/debug/vars")
		if err != nil {
			fetchErr = err
			return
		}
		defer resp.Body.Close()
		var vars map[string]json.RawMessage
		if fetchErr = json.NewDecoder(resp.Body).Decode(&vars); fetchErr == nil {
			fetchErr = json.Unmarshal(vars[varHealth], &health)
		}
	}}
	runCluster(t, hook, "-debug-addr", "127.0.0.1:0", "-supervised", "-statedir", t.TempDir())
	if fetchErr != nil {
		t.Fatalf("reading %s: %v\n%s", varHealth, fetchErr, hook.log.String())
	}
	if !strings.HasPrefix(health, "attempts=1 stalls=0 ") || !strings.HasSuffix(health, " last_err=<nil>") {
		t.Errorf("%s = %q, want the first attempt's health line", varHealth, health)
	}
}

// TestNoDebugListenerWithoutFlag: without -debug-addr the only sockets the
// process listens on while a party runs are the mesh's.
func TestNoDebugListenerWithoutFlag(t *testing.T) {
	var listening map[int]bool
	var procErr error
	hook := &meshUpHook{onMeshUp: func(string) { listening, procErr = listeningPorts() }}
	addrs := runCluster(t, hook)
	if strings.Contains(hook.log.String(), "debug server") {
		t.Errorf("a debug server started without the flag:\n%s", hook.log.String())
	}
	if procErr != nil {
		t.Skipf("no /proc/self to list listening sockets: %v", procErr)
	}
	mesh := map[int]bool{}
	for _, a := range addrs {
		mesh[portOf(t, a)] = true
	}
	if len(listening) == 0 {
		t.Fatal("no listening socket found while the mesh was up: the check sees nothing")
	}
	for port := range listening {
		if !mesh[port] {
			t.Errorf("listening on port %d, which is no mesh address %v", port, addrs)
		}
	}
}

package lint

import (
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The mutation table: the evidence for what each check is worth. Every
// row seeds one realistic bug into a real package — in memory, through
// the loader's overlay; the tree is never touched — and names the check
// that must fire on the line carrying the row's `// MUTANT` marker. A row
// with no check is a known gap: it asserts the analyzer stays silent on
// that line and says why, so a gap that a later change closes fails here
// and gets promoted to a catch instead of rotting as documentation. A row
// whose old text no longer matches the file fails too: the table follows
// the code.
//
// The goroutine-leak rows (G*) have no static check by design: the
// runtime assertion TestNoGoroutinesAfterClose (internal/tcpnet) hangs in
// Close on G1 and G2, which is what replaced the goroleak check.
type mutant struct {
	id    string
	file  string      // module-root-relative
	edits [][2]string // exact old → new text; each old occurs exactly once
	fires []string    // checks that must report on the MUTANT line; none = known gap
	why   string      // the bug; for a gap, also why nothing catches it
}

const mutantMarker = "// MUTANT"

const tcpnetFile = "internal/tcpnet/tcpnet.go"

var mutants = []mutant{
	{id: "F1", file: tcpnetFile, fires: []string{"bufownership"},
		why: "second frame.Release() in readLoop's closed branch",
		edits: [][2]string{{
			"\t\t\tframe.Release() // nothing retained the payloads\n",
			"\t\t\tframe.Release() // nothing retained the payloads\n\t\t\tframe.Release() // MUTANT\n"}}},
	{id: "F2", file: tcpnetFile, fires: []string{"bufownership"},
		why: "the round body's shared-frame branch (ExchangeVec) releases the frame after sendRound stored it in the round's tail slot",
		edits: [][2]string{{
			"\t\tc.sendRound(r, c.arena.EncodeFrameVecs(r, c.vecs[self]))\n",
			"\t\tfr := c.arena.EncodeFrameVecs(r, c.vecs[self])\n\t\tc.sendRound(r, fr)\n\t\tfr.Release() // MUTANT\n"}}},
	{id: "F3", file: tcpnetFile, fires: []string{"bufownership"},
		why: "sendRound itself releases the shared frame after a write while the tail slot holds it",
		edits: [][2]string{{
			"\t\t\tc.write(peer, to.gen, to.conn, slot.frame(r, peer).Bytes(), 1)\n",
			"\t\t\tc.write(peer, to.gen, to.conn, slot.frame(r, peer).Bytes(), 1)\n\t\t\tshared.Release() // MUTANT\n"}}},
	{id: "F4", file: tcpnetFile, fires: []string{"bufownership"},
		why: "installLink releases the replay batch before writing it",
		edits: [][2]string{{
			"\t\tc.write(peer, gen, conn, replay.Bytes(), replayFrames)\n\t\treplay.Release()\n",
			"\t\treplay.Release()\n\t\tc.write(peer, gen, conn, replay.Bytes(), replayFrames) // MUTANT\n"}}},
	{id: "F5", file: tcpnetFile,
		why: "readLoop never releases a stale-round frame: a leak, not corruption — no check tracks a frame that is never released (the arena just allocates afresh)",
		edits: [][2]string{{
			"handed to anyone, so the buffer goes straight back.\n\t\t\tframe.Release()\n",
			"handed to anyone, so the buffer goes straight back.\n\t\t\t_ = frame // MUTANT\n"}}},
	{id: "L1", file: tcpnetFile, fires: []string{"lockorder"},
		why: "installLink writes the replay before c.mu.Unlock(): write → linkLost re-locks c.mu",
		edits: [][2]string{{
			"\tc.cond.Broadcast()\n\tc.mu.Unlock()\n\n\tif replay != nil {\n\t\tc.write(peer, gen, conn, replay.Bytes(), replayFrames)\n\t\treplay.Release()\n\t}\n",
			"\tc.cond.Broadcast()\n\tif replay != nil {\n\t\tc.write(peer, gen, conn, replay.Bytes(), replayFrames) // MUTANT\n\t\treplay.Release()\n\t}\n\tc.mu.Unlock()\n"}}},
	{id: "L2", file: tcpnetFile, fires: []string{"lockorder"},
		why: "write holds wmu (deferred unlock) into linkLost while sendRound holds c.mu across the writes: mu → wmu → mu",
		edits: [][2]string{
			{"\tc.wmu[peer].Lock()\n", "\tc.wmu[peer].Lock()\n\tdefer c.wmu[peer].Unlock()\n"},
			{"\t}\n\tc.wmu[peer].Unlock()\n", "\t}\n"},
			{"\tc.mu.Unlock()\n\tfor peer, to := range c.sendTo {\n\t\tif to.conn != nil {\n\t\t\tc.write(peer, to.gen, to.conn, slot.frame(r, peer).Bytes(), 1)\n\t\t}\n\t}\n",
				"\tfor peer, to := range c.sendTo {\n\t\tif to.conn != nil {\n\t\t\tc.write(peer, to.gen, to.conn, slot.frame(r, peer).Bytes(), 1) // MUTANT\n\t\t}\n\t}\n\tc.mu.Unlock()\n"}}},
	{id: "L3", file: tcpnetFile, fires: []string{"mutexhold"},
		why: "conn.Write under c.mu in sendRound's link snapshot",
		edits: [][2]string{{
			"\t\t\tc.sendTo[peer] = sendTarget{conn: l.conn, gen: l.gen}\n",
			"\t\t\tc.sendTo[peer] = sendTarget{conn: l.conn, gen: l.gen}\n\t\t\tl.conn.Write(slot.frame(r, peer).Bytes()) // MUTANT\n"}}},
	{id: "F6", file: tcpnetFile,
		why: "tail eviction releases through the slot's per-peer accessor, so a shared frame is released once per peer — a double release that Frame.Release panics on at run time (TestRejoinReplaysTail/mixed-shared-and-per-peer), but no check sees it: flow runs a loop body once, and f is a fresh frame each iteration",
		edits: [][2]string{{
			"\tif s.shared != nil {\n\t\ts.shared.Release()\n\t\ts.shared = nil\n\t}\n\tfor j, f := range s.peers {\n\t\tif f != nil {\n\t\t\tf.Release()\n",
			"\tfor j := range s.peers {\n\t\tif f := s.frame(s.round, j); f != nil {\n\t\t\tf.Release() // MUTANT\n"}}},
	{id: "L4", file: "internal/supervisor/supervisor.go", fires: []string{"mutexhold"},
		why: "time.Sleep under Attempt.mu",
		edits: [][2]string{{
			"\ta.mu.Lock()\n\ta.live = live\n",
			"\ta.mu.Lock()\n\ttime.Sleep(time.Millisecond) // MUTANT\n\ta.live = live\n"}}},
	{id: "L5", file: tcpnetFile,
		why: "a module helper that blocks (writeHello: conn.Write) called under c.mu — summaries carry no \"blocks\" fact, mutexhold sees only direct blocking calls",
		edits: [][2]string{{
			"\tround := c.round\n\tc.mu.Unlock()\n\tif err := writeHello(conn, c.cfg.ID, round, deadline); err != nil {\n\t\treturn 0, err\n\t}\n",
			"\tround := c.round\n\terr := writeHello(conn, c.cfg.ID, round, deadline) // MUTANT\n\tc.mu.Unlock()\n\tif err != nil {\n\t\treturn 0, err\n\t}\n"}}},
	{id: "G1", file: tcpnetFile,
		why: "readLoop continues instead of returning after linkLost — runtime: TestNoGoroutinesAfterClose hangs in Close",
		edits: [][2]string{{
			"\t\t\tc.linkLost(peer, gen, err)\n\t\t\treturn\n",
			"\t\t\tc.linkLost(peer, gen, err)\n\t\t\tcontinue // MUTANT\n"}}},
	{id: "G2", file: tcpnetFile,
		why: "acceptLoop continues on Accept error — runtime: TestNoGoroutinesAfterClose hangs in Close",
		edits: [][2]string{{
			"\t\t\treturn // listener closed\n",
			"\t\t\tcontinue // MUTANT\n"}}},
	{id: "G3", file: tcpnetFile,
		why: "reconnectLoop loses its <-c.done case — not a leak: the loop still exits after ReconnectAttempts",
		edits: [][2]string{{
			"\t\tselect {\n\t\tcase <-c.done:\n\t\t\treturn\n\t\tcase <-time.After(wait):\n\t\t}\n",
			"\t\t<-time.After(wait) // MUTANT\n"}}},
	{id: "E1", file: "session.go", fires: []string{"errflow"},
		why: "sessionNet.Exchange wraps AppendRound's error with %v instead of classifying it",
		edits: [][2]string{{
			"\t\tif err := s.log.AppendRound(msgs); err != nil && !s.noteStorageFailure(err) {\n\t\t\treturn nil, err\n",
			"\t\tif err := s.log.AppendRound(msgs); err != nil { // MUTANT\n\t\t\treturn nil, fmt.Errorf(\"session: append: %v\", err)\n"}}},
	{id: "E2", file: "internal/checkpoint/checkpoint.go", fires: []string{"errflow"},
		why: "checkpoint.AppendRound wraps append's error with %s",
		edits: [][2]string{{
			"\t\tw.Bytes(m.Payload)\n\t}\n\tl.st.NextRound++\n\treturn l.appendOne()\n",
			"\t\tw.Bytes(m.Payload)\n\t}\n\tl.st.NextRound++\n\tif err := l.appendOne(); err != nil { // MUTANT\n\t\treturn fmt.Errorf(\"append round: %s\", err)\n\t}\n\treturn nil\n"}}},
	{id: "E3", file: "session.go", fires: []string{"errdrop", "errflow"},
		why: "s.log.AppendRound(msgs) as a bare statement",
		edits: [][2]string{{
			"\t\tif err := s.log.AppendRound(msgs); err != nil && !s.noteStorageFailure(err) {\n\t\t\treturn nil, err\n\t\t}\n",
			"\t\ts.log.AppendRound(msgs) // MUTANT\n"}}},
	{id: "E4", file: "cmd/catcp/main.go",
		why: "catcp wraps ResumeOpts' error with %v — drivers are exempt from errflow by config, deliberately: they collapse errors into exit codes",
		edits: [][2]string{{
			"\t\tif err := s.ResumeOpts(stateDir, storage); err != nil {\n\t\t\treturn err\n",
			"\t\tif err := s.ResumeOpts(stateDir, storage); err != nil { // MUTANT\n\t\t\treturn fmt.Errorf(\"resume: %v\", err)\n"}}},
	{id: "D1", file: "internal/sessmux/sessmux.go", fires: []string{"maporder"},
		why: "sessmux.merge ranging over the open map instead of the sid-sorted order: the product bug on record (DESIGN §2.7)",
		edits: [][2]string{
			{"\tfor _, s := range m.order {\n\t\tmark := len(buf)\n",
				"\tfor _, s := range m.open { // MUTANT\n\t\tmark := len(buf)\n"}}},
	{id: "D2", file: "internal/sessmux/sessmux.go", fires: []string{"maporder"},
		why: "flush rebuilding the session order from the map in a helper that returns the slice",
		edits: [][2]string{
			{"\tin, err := m.merge()\n", "\tm.order = m.sessions()\n\tin, err := m.merge()\n"},
			{"// bySid orders sessions",
				"func (m *Mux) sessions() []*Session {\n\torder := m.order[:0]\n\tfor _, s := range m.open { // MUTANT\n\t\torder = append(order, s)\n\t}\n\treturn order\n}\n\n// bySid orders sessions"}}},
	{id: "D3", file: "internal/core/findprefix.go", fires: []string{"wallclock"},
		why: "time.Now/time.Since in core.findPrefix",
		edits: [][2]string{
			{"\t\"fmt\"\n", "\t\"fmt\"\n\t\"time\"\n"},
			{"\tleft, right := 1, numBlocks+1\n",
				"\tstart := time.Now() // MUTANT\n\tdefer func() { _ = time.Since(start) }()\n\tleft, right := 1, numBlocks+1\n"}}},
	{id: "D4", file: "internal/adversary/adversary.go", fires: []string{"detrand"},
		why: "global rand.Intn in internal/adversary",
		edits: [][2]string{{
			"\t\t\t\tpayload := carve(&buf, rng.Intn(maxLen+1))\n",
			"\t\t\t\tpayload := carve(&buf, rand.Intn(maxLen+1)) // MUTANT\n"}}},
	{id: "D5", file: "internal/faultnet/faultnet.go", fires: []string{"detrand"},
		why: "global rand.Float64() in faultnet.roll: the seed-exact fault schedule stops replaying",
		edits: [][2]string{
			{"\t\"fmt\"\n", "\t\"fmt\"\n\t\"math/rand\"\n"},
			{"\treturn float64(h>>11)/float64(1<<53) < prob\n",
				"\t_ = h\n\treturn rand.Float64() < prob // MUTANT\n"}}},
}

// TestMutants runs the table. Rows are packed into as few program loads
// as they allow: two rows share a load unless one's package can see the
// other's (imports it, transitively, or is it), since a seeded bug moves
// the summaries of everything downstream of it.
func TestMutants(t *testing.T) {
	if testing.Short() {
		t.Skip("a program load per group of rows is not -short work")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	base, err := newLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if findings, err := base.run([]string{"./..."}, nil); err != nil || len(findings) > 0 {
		t.Fatalf("the unmutated tree must be clean: %v %v", findings, err)
	}
	sees := func(a, b string) bool { // package dir a imports package dir b, transitively
		var visit func(p *types.Package) bool
		seen := map[*types.Package]bool{}
		visit = func(p *types.Package) bool {
			if p == base.passes[b].Pkg {
				return true
			}
			if seen[p] {
				return false
			}
			seen[p] = true
			for _, imp := range p.Imports() {
				if visit(imp) {
					return true
				}
			}
			return false
		}
		return visit(base.passes[a].Pkg)
	}
	var groups [][]mutant
next:
	for _, m := range mutants {
		dir := relDir(m.file)
		if base.passes[dir] == nil {
			t.Fatalf("%s: no package at %s", m.id, dir)
		}
		for i, g := range groups {
			free := true
			for _, other := range g {
				if o := relDir(other.file); sees(dir, o) || sees(o, dir) {
					free = false
				}
			}
			if free {
				groups[i] = append(g, m)
				continue next
			}
		}
		groups = append(groups, []mutant{m})
	}
	for _, g := range groups {
		runMutantGroup(t, base, g)
	}
	t.Logf("%d rows in %d program loads", len(mutants), len(groups))
}

func relDir(file string) string {
	if dir := filepath.ToSlash(filepath.Dir(file)); dir != "." {
		return dir
	}
	return ""
}

// runMutantGroup applies the group's edits in an overlay over a fork of
// base — same stdlib, fresh module packages — and judges each row by the
// findings on its marker line.
func runMutantGroup(t *testing.T, base *loader, group []mutant) {
	ld := *base
	ld.passes = map[string]*Pass{}
	ld.cache = map[string]*types.Package{}
	for path, pkg := range base.cache {
		if !isModulePkg(path) {
			ld.cache[path] = pkg
		}
	}
	ld.overlay = map[string][]byte{}
	markerLine := map[string]int{}
	for _, m := range group {
		path := filepath.Join(base.root, m.file)
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		text := string(src)
		for _, e := range m.edits {
			if n := strings.Count(text, e[0]); n != 1 {
				t.Errorf("%s: old text occurs %d times in %s, want once — the table must follow the code:\n%s", m.id, n, m.file, e[0])
				return
			}
			text = strings.Replace(text, e[0], e[1], 1)
		}
		if strings.Count(text, mutantMarker) != 1 {
			t.Fatalf("%s: want exactly one %s line", m.id, mutantMarker)
		}
		markerLine[m.id] = 1 + strings.Count(text[:strings.Index(text, mutantMarker)], "\n")
		ld.overlay[path] = []byte(text)
	}
	findings, err := ld.run([]string{"./..."}, nil)
	if err != nil {
		t.Errorf("group of %s: mutated tree does not load: %v", group[0].id, err)
		return
	}
	for _, m := range group {
		fired := map[string]string{}
		for _, f := range findings {
			if f.File == m.file && f.Line == markerLine[m.id] {
				fired[f.Check] = f.Message
			}
		}
		for _, check := range m.fires {
			if fired[check] == "" {
				t.Errorf("%s (%s): %s did not fire at %s:%d; findings there: %v", m.id, m.why, check, m.file, markerLine[m.id], fired)
			}
		}
		if len(m.fires) == 0 && len(fired) > 0 {
			t.Errorf("%s is listed as a known gap (%s) but now fires: %v — promote the row", m.id, m.why, fired)
		}
	}
}

package lint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"strings"
	"testing"
)

// loadEngineProgram loads the engine fixture into a fresh loader and
// returns the whole-program view over it, as goldenTest does.
func loadEngineProgram(t *testing.T) *Program {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	ld, err := newLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "internal", "lint", "testdata", "src", "engine")
	pass, err := ld.loadDir(dir, "calintfixture/engine")
	if err != nil {
		t.Fatal(err)
	}
	pass.RelPkg = "testdata/engine"
	passes := make([]*Pass, 0, len(ld.passes)+1)
	for _, p := range ld.passes {
		passes = append(passes, p)
	}
	passes = append(passes, pass)
	return newProgram(ld.fset, passes)
}

// engineEdgesDigest pins the call graph the engine extracts from the
// fixture: every edge kind (static " -> ", interface-dispatched " ?> ",
// spawn " go "), deduplicated and sorted. Update the digest only after
// reviewing the printed edge list — a silent change here means the call
// graph itself changed.
const engineEdgesDigest = "14d4e7add49f7d78"

func TestCallGraphGolden(t *testing.T) {
	prog := loadEngineProgram(t)
	edges := prog.Edges()
	joined := strings.Join(edges, "\n")
	sum := sha256.Sum256([]byte(joined))
	if got := hex.EncodeToString(sum[:8]); got != engineEdgesDigest {
		t.Errorf("call-graph digest = %q, want %q; edges:\n%s", got, engineEdgesDigest, joined)
	}
	// Spot-check one edge of each kind so a digest regression is
	// diagnosable without decoding anything.
	want := []string{
		"calintfixture/engine.chainTop -> calintfixture/engine.chainMid",
		"calintfixture/engine.spawnLeaf go calintfixture/engine.leaf",
	}
	for _, w := range want {
		found := false
		for _, e := range edges {
			if e == w {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("edge list missing %q", w)
		}
	}
	iface := false
	for _, e := range edges {
		if strings.Contains(e, " ?> ") {
			iface = true
		}
	}
	if !iface {
		t.Error("edge list has no interface-dispatched edge; CHA resolution regressed")
	}
}

// TestSummaryDeterminism builds the program twice from scratch and
// demands byte-identical summary JSON: map iteration order, fixpoint
// scheduling, and CHA caching must not leak into the output.
func TestSummaryDeterminism(t *testing.T) {
	a, err := loadEngineProgram(t).SummaryJSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := loadEngineProgram(t).SummaryJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("summary JSON differs between two identical runs:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
	if len(a) == 0 || string(a) == "{}" {
		t.Errorf("summary JSON is empty; the fixture should produce lock/err facts: %s", a)
	}
}

// TestFixpointTermination exercises the recursive shapes: a self-
// recursive lock helper (net effect must clamp, not diverge) and a
// mutually recursive error pair (family propagation must close the
// loop). ensureSummaries has a hard round cap, so divergence would
// surface as wrong facts here rather than a hang.
func TestFixpointTermination(t *testing.T) {
	prog := loadEngineProgram(t)
	prog.ensureSummaries()
	byName := map[string]*FuncInfo{}
	for _, fi := range prog.infos {
		byName[displayName(fi.Fn)] = fi
	}
	rec := byName["calintfixture/engine.recurseLock"]
	if rec == nil {
		t.Fatal("no summary for recurseLock")
	}
	for class, net := range rec.Sum.NetLocks {
		if net.n > lockNetClamp || net.n < -lockNetClamp {
			t.Errorf("recurseLock net lock effect for %s = %d, beyond clamp %d", class, net.n, lockNetClamp)
		}
	}
	if len(rec.Sum.Acquires) == 0 {
		t.Error("recurseLock should record a lock acquisition in its call tree")
	}
	for _, name := range []string{"calintfixture/engine.mutualA", "calintfixture/engine.mutualB"} {
		if byName[name] == nil {
			t.Fatalf("no summary for %s", name)
		}
	}
}

package lint

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The golden harness: each analyzer has a fixture package under
// testdata/src/<name>/ whose files carry `// want "regexp"` markers on
// the lines where a diagnostic is expected (backquoted patterns are
// accepted too). A line with a violation and an ignore directive but no
// want marker asserts suppression; any unexpected or missing diagnostic
// fails the test — so an analyzer whose detection regresses fails CI.

// wantRe extracts the quoted or backquoted patterns of a want marker.
var wantRe = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// collectWants maps line → expected-message regexps for one fixture.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[int][]*regexp.Regexp {
	t.Helper()
	out := map[int][]*regexp.Regexp{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				line := fset.Position(c.Pos()).Line
				for _, m := range wantRe.FindAllStringSubmatch(strings.TrimPrefix(text, "want "), -1) {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("bad want pattern %q at line %d: %v", pat, line, err)
					}
					out[line] = append(out[line], re)
				}
			}
		}
	}
	return out
}

// goldenTest loads testdata/src/<name>, runs the analyzer of that name
// with ignore directives applied (malformed-directive findings included,
// so those are markable too), and asserts findings and want markers match
// one-to-one by line.
func goldenTest(t *testing.T, name string) { goldenFixture(t, name, name) }

// goldenFixture is goldenTest for a fixture directory that is not named
// after its check. The fixture of the former interprocedural frame check
// is kept byte-identical on disk, so its one suppression directive still
// spells the retired name; it is read through the loader's overlay with
// that name rewritten to the check the fixture now runs under.
func goldenFixture(t *testing.T, check, name string) {
	t.Helper()
	a := AnalyzerByName(check)
	if a == nil {
		t.Fatalf("no analyzer %q", check)
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	ld, err := newLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "internal", "lint", "testdata", "src", name)
	if check != name {
		ld.overlay = map[string][]byte{}
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			ld.overlay[file] = bytes.ReplaceAll(src, []byte(ignorePrefix+" "+name+" "), []byte(ignorePrefix+" "+check+" "))
		}
	}
	pass, err := ld.loadDir(dir, "calintfixture/"+name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	pass.RelPkg = "testdata/" + name
	dirs := collectDirectives(pass.Fset, pass.Files)

	// Build a Program over the fixture plus whatever module packages it
	// pulled in, exactly as Run does, so interprocedural analyzers (and
	// per-package ones that consult summaries) see the same world.
	passes := make([]*Pass, 0, len(ld.passes)+1)
	for _, p := range ld.passes {
		passes = append(passes, p)
	}
	passes = append(passes, pass)
	prog := newProgram(ld.fset, passes)

	var findings []Finding
	if a.RunGlobal != nil {
		findings = runGlobal(prog, a, dirs, map[string]bool{pass.RelPkg: true})
	} else {
		findings = runOne(pass, a, dirs)
	}
	findings = append(findings, dirs.malformed()...)
	wants := collectWants(t, pass.Fset, pass.Files)

	matched := map[int][]bool{}
	for line, res := range wants {
		matched[line] = make([]bool, len(res))
	}
	for _, f := range findings {
		ok := false
		for i, re := range wants[f.Line] {
			if !matched[f.Line][i] && re.MatchString(f.Message) {
				matched[f.Line][i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic at %s:%d: %s", filepath.Base(f.File), f.Line, f.Message)
		}
	}
	for line, res := range wants {
		for i, re := range res {
			if !matched[line][i] {
				t.Errorf("missing diagnostic at line %d matching %q", line, re)
			}
		}
	}
}

func TestDetrandGolden(t *testing.T)   { goldenTest(t, "detrand") }
func TestWallclockGolden(t *testing.T) { goldenTest(t, "wallclock") }
func TestMaporderGolden(t *testing.T)  { goldenTest(t, "maporder") }
func TestErrdropGolden(t *testing.T)   { goldenTest(t, "errdrop") }
func TestMutexholdGolden(t *testing.T) { goldenTest(t, "mutexhold") }

// The two frame fixtures — same-function misuse, and misuse across a call
// boundary — run under the one frame-ownership check.
func TestBufownershipGolden(t *testing.T)   { goldenTest(t, "bufownership") }
func TestBufownershipIPGolden(t *testing.T) { goldenFixture(t, "bufownership", "bufownership-ip") }

func TestLockorderGolden(t *testing.T) { goldenTest(t, "lockorder") }
func TestErrflowGolden(t *testing.T)   { goldenTest(t, "errflow") }

// TestRepoClean is the in-process version of the CI gate: the repository
// itself must carry zero findings (every true positive fixed or
// explicitly suppressed with a reasoned directive).
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-tree typecheck is not -short work")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Run(root, []string{"./..."}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestMalformedDirectives covers the directive parser's error findings:
// a reasonless ignore and an unknown check are both findings, so the
// gate cannot be quieted silently.
func TestMalformedDirectives(t *testing.T) {
	src := `package p

func a() {
	//calint:ignore errdrop
	_ = 1
	//calint:ignore nosuchcheck because reasons
	_ = 2
	//calint:ignore maporder,errdrop covers two checks at once
	_ = 3
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	d := collectDirectives(fset, []*ast.File{f})
	got := d.malformed()
	if len(got) != 2 {
		t.Fatalf("want 2 malformed-directive findings, got %d: %v", len(got), got)
	}
	if !strings.Contains(got[0].Message, "needs a reason") {
		t.Errorf("first finding should flag the missing reason: %s", got[0].Message)
	}
	if !strings.Contains(got[1].Message, "no known check") {
		t.Errorf("second finding should flag the unknown check: %s", got[1].Message)
	}
	if !d.suppresses(Finding{File: "p.go", Line: 9, Check: "maporder"}) ||
		!d.suppresses(Finding{File: "p.go", Line: 9, Check: "errdrop"}) {
		t.Error("comma-separated directive should suppress both named checks on the next line")
	}
	if d.suppresses(Finding{File: "p.go", Line: 9, Check: "detrand"}) {
		t.Error("directive must not suppress checks it does not name")
	}
}

// TestExpandPatterns pins the pattern grammar of the CLI.
func TestExpandPatterns(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	ld, err := newLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	all, err := ld.expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"": true, "internal/sim": true, "internal/lint": true, "cmd/calint": true}
	for _, rel := range all {
		delete(want, rel)
		if strings.Contains(rel, "testdata") {
			t.Errorf("testdata package leaked into ./... expansion: %q", rel)
		}
	}
	for missing := range want {
		t.Errorf("./... expansion missed %q", missing)
	}
	one, err := ld.expand([]string{"./internal/sim"})
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0] != "internal/sim" {
		t.Errorf("exact pattern: got %v", one)
	}
	if _, err := ld.expand([]string{"./no/such/dir"}); err == nil {
		t.Error("expanding a goless dir should error")
	}
}

// TestConfigScope pins the package classes: wall-clock and global-rand
// rules stop at the real-time boundary, nothing gates the lint package's
// own fixtures.
func TestConfigScope(t *testing.T) {
	cases := []struct {
		check, rel string
		want       bool
	}{
		{"wallclock", "internal/sim", true},
		{"wallclock", "internal/tcpnet", false},
		{"wallclock", "internal/supervisor", false},
		{"wallclock", "internal/faultnet", true},
		{"detrand", "internal/faultnet", true},
		{"detrand", "internal/tcpnet", false},
		{"wallclock", "cmd/catcp", false},
		{"wallclock", "examples/drones", false},
		{"detrand", "internal/adversary", true},
		{"detrand", "cmd/cabench", false},
		{"maporder", "internal/mux", true},
		{"maporder", "internal/lint", false},
		{"errdrop", "", true},
		{"mutexhold", "internal/tcpnet", true},
		{"bufownership", "internal/tcpnet", true},
		{"bufownership", "internal/lint", false},
		{"lockorder", "internal/mux", true},
		{"lockorder", "internal/lint", false},
		{"lockorder", "internal/transporttest", false},
		{"bufownership", "internal/wire", true},
		{"bufownership", "internal/testutil", false},
		{"errflow", "internal/checkpoint", true},
		{"errflow", "cmd/catcp", false},
		{"errflow", "examples/drones", false},
		{"errflow", "internal/lint", false},
	}
	for _, c := range cases {
		if got := appliesTo(c.check, c.rel); got != c.want {
			t.Errorf("appliesTo(%q, %q) = %v, want %v", c.check, c.rel, got, c.want)
		}
	}
}

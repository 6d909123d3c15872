package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExplainDocSync pins the single-source-of-truth property of the
// check contracts: the string `calint -explain <check>` prints must
// appear in DESIGN.md §2.7, and README.md must name every check.
// Comparison is whitespace-normalized so the docs may re-wrap lines,
// but any wording drift fails the test.
func TestExplainDocSync(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	design := normalizeWS(readDoc(t, filepath.Join(root, "DESIGN.md")))
	readme := normalizeWS(readDoc(t, filepath.Join(root, "README.md")))
	for _, a := range Analyzers() {
		if !strings.Contains(readme, "`"+a.Name+"`") {
			t.Errorf("README.md does not list check %q", a.Name)
		}
		if a.Contract == "" {
			continue
		}
		if !strings.Contains(design, normalizeWS(a.Contract)) {
			t.Errorf("DESIGN.md does not embed the %s contract verbatim; -explain and the docs have drifted.\nContract:\n%s", a.Name, a.Contract)
		}
		if a.Example == "" {
			t.Errorf("check %s has a Contract but no Example; -explain output would be incomplete", a.Name)
		}
	}
}

func readDoc(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// normalizeWS collapses every whitespace run (including newlines from
// markdown re-wrapping) to a single space.
func normalizeWS(s string) string {
	return strings.Join(strings.Fields(s), " ")
}

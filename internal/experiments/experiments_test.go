package experiments_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"convexagreement/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite testdata/etables from this build")

// TestETables pins the reproduction's results: every Registry table,
// rendered at its one range, must equal testdata/etables/E<i>.txt byte for
// byte. The tables are first checked for what no golden may hold — a
// registry out of order, an incomplete table, a ragged row, a VIOLATED cell,
// a property violation counted in E4 or E7 — and a table that fails a check
// is not written, so `go test ./internal/experiments -run TestETables
// -update` cannot pin a violation.
func TestETables(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every table at its full range")
	}
	for i, run := range experiments.Registry {
		id := fmt.Sprintf("E%d", i+1)
		t.Run(id, func(t *testing.T) {
			tbl := run()
			checkTable(t, id, tbl)
			if t.Failed() {
				return
			}
			path := filepath.Join("testdata", "etables", id+".txt")
			got := tbl.Render()
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (record with -update)", err)
			}
			gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for l := 0; l < max(len(gotLines), len(wantLines)); l++ {
				var g, w string
				if l < len(gotLines) {
					g = gotLines[l]
				}
				if l < len(wantLines) {
					w = wantLines[l]
				}
				if g != w {
					t.Errorf("%s line %d:\n got %q\nwant %q", path, l+1, g, w)
				}
			}
		})
	}
}

// checkTable holds one rendered table to what every table must satisfy
// before it is compared or pinned.
func checkTable(t *testing.T, id string, tbl experiments.Table) {
	t.Helper()
	if tbl.ID != id {
		t.Errorf("registry entry %s renders as %s (ByID finds experiments by position)", id, tbl.ID)
	}
	if tbl.Title == "" || tbl.Claim == "" {
		t.Errorf("%s: title or claim missing", id)
	}
	if len(tbl.Rows) == 0 {
		t.Errorf("%s: no rows", id)
	}
	for _, row := range tbl.Rows {
		if len(row) != len(tbl.Header) {
			t.Errorf("%s: row width %d != header %d: %v", id, len(row), len(tbl.Header), row)
			continue
		}
		// The deployed-stack sweeps (E17–E20) render every property
		// through one mark: no table may carry a violated cell.
		for i, cell := range row {
			if cell == "VIOLATED" {
				t.Errorf("%s: %s VIOLATED in row %v", id, tbl.Header[i], row)
			}
		}
		// The property campaigns count violations; each count must be 0.
		switch id {
		case "E4":
			for _, cell := range row[2:5] {
				if cell != "0" {
					t.Errorf("E4 violation recorded: %v", row)
				}
			}
		case "E7":
			if row[len(row)-1] != "0" {
				t.Errorf("E7 violation recorded: %v", row)
			}
		}
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, err := experiments.ByID("E99"); err == nil {
		t.Error("unknown id accepted")
	}
}

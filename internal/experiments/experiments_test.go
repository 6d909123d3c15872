package experiments_test

import (
	"fmt"
	"strings"
	"testing"

	"convexagreement/internal/experiments"
)

// TestAllQuickExperimentsRun executes the entire harness in quick mode:
// every table must render, have rows, and report zero violations — the
// property campaigns' counters and every cell of the deployed-stack sweeps. This keeps `go test ./...` covering the full
// reproduction pipeline end to end.
func TestAllQuickExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness run")
	}
	tables := experiments.All(true)
	if len(tables) != len(experiments.Registry) {
		t.Fatalf("%d experiments ran, the registry lists %d", len(tables), len(experiments.Registry))
	}
	for i, tbl := range tables {
		if want := fmt.Sprintf("E%d", i+1); tbl.ID != want {
			t.Errorf("registry entry %d is %s, want %s (ByID finds experiments by position)", i, tbl.ID, want)
		}
	}
	ids := map[string]bool{}
	for _, tbl := range tables {
		if tbl.ID == "" || tbl.Title == "" || tbl.Claim == "" {
			t.Errorf("table %q incomplete", tbl.ID)
		}
		if ids[tbl.ID] {
			t.Errorf("duplicate experiment id %q", tbl.ID)
		}
		ids[tbl.ID] = true
		if len(tbl.Rows) == 0 {
			t.Errorf("%s: no rows", tbl.ID)
		}
		for _, row := range tbl.Rows {
			if len(row) != len(tbl.Header) {
				t.Errorf("%s: row width %d != header %d", tbl.ID, len(row), len(tbl.Header))
			}
			// The deployed-stack sweeps (E17–E20) render every property
			// through one mark: no table may carry a violated cell.
			for i, cell := range row {
				if cell == "VIOLATED" {
					t.Errorf("%s: %s VIOLATED in row %v", tbl.ID, tbl.Header[i], row)
				}
			}
		}
		rendered := tbl.Render()
		if !strings.Contains(rendered, tbl.ID) || !strings.Contains(rendered, tbl.Header[0]) {
			t.Errorf("%s: render missing parts", tbl.ID)
		}
	}

	// Property campaigns must report zero violations.
	e4, err := experiments.ByID("e4", true)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range e4.Rows {
		for _, cell := range row[2:5] {
			if cell != "0" {
				t.Errorf("E4 violation recorded: %v", row)
			}
		}
	}
	e7, err := experiments.ByID("E7", true)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range e7.Rows {
		if row[len(row)-1] != "0" {
			t.Errorf("E7 violation recorded: %v", row)
		}
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, err := experiments.ByID("E99", true); err == nil {
		t.Error("unknown id accepted")
	}
}

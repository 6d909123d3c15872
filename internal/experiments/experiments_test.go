package experiments_test

import (
	"fmt"
	"strings"
	"testing"

	"convexagreement/internal/experiments"
)

// TestAllQuickExperimentsRun executes the entire harness in quick mode:
// every table must render, have rows, and — for the property campaigns —
// report zero violations. This keeps `go test ./...` covering the full
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

// TestE19IngressQuick gates the active-adversary sweep in CI: every quick
// scenario must report agreement, validity, and seed-exact replay under
// live flood, oversize, and burst attacks.
func TestE19IngressQuick(t *testing.T) {
	tbl, err := experiments.ByID("E19", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("E19 produced no rows")
	}
	for _, row := range tbl.Rows {
		// columns: scenario n t agree validity replay rounds
		for _, cell := range row[3:6] {
			if cell != "ok" {
				t.Errorf("E19 %s n=%s: %v", row[0], row[1], row)
			}
		}
	}
}

// TestE20StorageQuick gates the storage-fault sweep in CI: the quick row
// must report the dying disk degraded (not fatal), agreement, validity,
// and layer-exact replay under combined storage+network faults.
func TestE20StorageQuick(t *testing.T) {
	tbl, err := experiments.ByID("E20", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("E20 produced no rows")
	}
	for _, row := range tbl.Rows {
		// columns: n t instances kills attempts degraded agree validity replay
		for _, cell := range row[5:9] {
			if cell != "ok" {
				t.Errorf("E20 n=%s: %v", row[0], row)
			}
		}
	}
}

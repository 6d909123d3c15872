// Package experiments implements the reproduction experiments E1–E20 of
// DESIGN.md §3 (Registry lists them). The paper is a theory paper with no
// measured evaluation, so each experiment turns one of its complexity
// theorems into a measurable table: the absolute constants are ours, but
// the *shapes* — linearity in ℓ, the n vs n² vs n³ ordering against
// baselines, O(n log n) rounds, the crossover thresholds — are the paper's
// claims and are what EXPERIMENTS.md records as expected-vs-measured.
//
// Both the go test bench harness (bench_test.go) and cmd/cabench call into
// this package, so `go test -bench` and the CLI print identical tables.
package experiments

import (
	"fmt"
	"math/big"
	"math/rand"
	"strings"

	ca "convexagreement"
)

// Table is one experiment's output: a claim, a header, and printable rows.
// The JSON form (cabench -json) serializes these fields directly.
type Table struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Claim  string     `json:"claim"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// Render formats the table for terminal output.
func (t Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	fmt.Fprintf(&b, "claim: %s\n", t.Claim)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	line(sepRow(widths))
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

func sepRow(widths []int) []string {
	out := make([]string, len(widths))
	for i, w := range widths {
		out[i] = strings.Repeat("-", w)
	}
	return out
}

// Registry is the one table of experiments: E<i+1> at index i. All and ByID
// both read it.
var Registry = []func(quick bool) Table{
	E1BitsVsEll, E2BitsVsN, E3Rounds, E4BAPlusProperties, E5LBAPlusBreakdown,
	E6Threshold, E7ValidityCampaign, E8HighCostCA, E9BitsVsBlocks, E10AdversaryAblation,
	E11ParallelComposition, E12CAvsAA, E13AsyncAA, E14VectorScaling, E15LoadBalance,
	E16DispersalAblation, E17FaultSweep, E18CrashRecovery, E19IngressSweep, E20StorageFaults,
}

// All runs every experiment. quick reduces parameter ranges so the full
// suite fits in roughly a minute.
func All(quick bool) []Table {
	tables := make([]Table, len(Registry))
	for i, run := range Registry {
		tables[i] = run(quick)
	}
	return tables
}

// ByID returns the experiment with the given id (e.g. "E4").
func ByID(id string, quick bool) (Table, error) {
	for i, run := range Registry {
		if strings.EqualFold(id, fmt.Sprintf("E%d", i+1)) {
			return run(quick), nil
		}
	}
	return Table{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// randInputs draws n uniform values below 2^bits.
func randInputs(rng *rand.Rand, n, bits int) []*big.Int {
	bound := new(big.Int).Lsh(big.NewInt(1), uint(bits))
	out := make([]*big.Int, n)
	for i := range out {
		out[i] = new(big.Int).Rand(rng, bound)
	}
	return out
}

// clusteredInputs draws n values in a tight band around center — the
// sensor-network workload from the paper's introduction.
func clusteredInputs(rng *rand.Rand, n int, center int64, spread int64) []*big.Int {
	out := make([]*big.Int, n)
	for i := range out {
		out[i] = big.NewInt(center + rng.Int63n(2*spread+1) - spread)
	}
	return out
}

// mustAgree runs Agree and panics on error: experiment configurations are
// fixed and an error means the harness itself is broken.
func mustAgree(inputs []*big.Int, opts ca.Options) *ca.Result {
	res, err := ca.Agree(inputs, opts)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return res
}

func fmtBits(bits int64) string {
	switch {
	case bits >= 1<<23:
		return fmt.Sprintf("%.1fMiB", float64(bits)/(8*1024*1024))
	case bits >= 1<<13:
		return fmt.Sprintf("%.1fKiB", float64(bits)/(8*1024))
	default:
		return fmt.Sprintf("%db", bits)
	}
}

func defaultT(n int) int { return (n - 1) / 3 }

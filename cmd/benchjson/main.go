// Command benchjson converts `go test -bench -benchmem` output into JSON and
// gates it: scripts/ci.sh pipes its guard benchmarks through it.
//
// It reads benchmark output on stdin and writes a JSON object mapping each
// benchmark name (GOMAXPROCS suffix stripped) to its measured metrics:
//
//	{"BenchmarkEncode_n256_k171_64KiB": {"ns_op": 3852660, "b_op": 123, "allocs_op": 2}, ...}
//
// With -guard-allocs PATTERN, the tool exits non-zero if any benchmark
// matching PATTERN reports more allocs/op than its row in
// benchdata/alloc_guards.json (a flat name → allocs/op object, read relative
// to the working directory). CI uses this to pin the zero-copy wire path and
// the whole ticks: allocation counts are deterministic, so unlike ns/op they
// can gate without flaking. A change that is meant to move a count edits its
// row by hand.
//
// With -guard-time 'PATTERN=DURATION', the tool exits non-zero if any
// benchmark matching PATTERN reports ns/op above the absolute budget. It
// gates against a wall-clock contract (e.g. "the full-tree calint run stays
// under 60s"), so the budget must be generous enough to absorb machine-speed
// variance. ns/op is never compared across runs: where a speedup is claimed
// it is measured by the repo's benchmark (bench/, BENCHMARK.json).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metrics holds one benchmark's parsed values; pointers distinguish "not
// reported" (e.g. no -benchmem) from a literal zero. Custom units emitted
// via b.ReportMetric (sessions/sec, frames/tick, MiB/party, …) land in
// Extra keyed by their unit string.
type metrics struct {
	NsOp     *float64           `json:"ns_op,omitempty"`
	MBs      *float64           `json:"mb_s,omitempty"`
	BOp      *float64           `json:"b_op,omitempty"`
	AllocsOp *float64           `json:"allocs_op,omitempty"`
	Extra    map[string]float64 `json:"extra,omitempty"`
}

var procSuffix = regexp.MustCompile(`-\d+$`)

func parse(r *bufio.Scanner) (map[string]*metrics, error) {
	out := make(map[string]*metrics)
	for r.Scan() {
		fields := strings.Fields(r.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := procSuffix.ReplaceAllString(fields[0], "")
		m := &metrics{}
		// fields[1] is the iteration count; after it come (value, unit) pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchjson: %q: bad value %q: %v", name, fields[i], err)
			}
			switch fields[i+1] {
			case "ns/op":
				m.NsOp = &v
			case "MB/s":
				m.MBs = &v
			case "B/op":
				m.BOp = &v
			case "allocs/op":
				m.AllocsOp = &v
			default:
				if m.Extra == nil {
					m.Extra = make(map[string]float64)
				}
				m.Extra[fields[i+1]] = v
			}
		}
		out[name] = m
	}
	return out, r.Err()
}

// orderedJSON marshals the map with sorted keys so regenerated files diff
// cleanly. (encoding/json already sorts map keys; this wrapper documents
// that the stability is load-bearing.)
func orderedJSON(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// sortedNames lists the run's benchmarks in a stable order, so a guard's
// report reads the same on every run.
func sortedNames(run map[string]*metrics) []string {
	names := make([]string, 0, len(run))
	for name := range run {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// guardsFile holds the allocs/op each guarded benchmark may not exceed.
const guardsFile = "benchdata/alloc_guards.json"

// checkAllocGuard fails if any benchmark of the run matching pattern reports
// more allocs/op than its row in guards, or has no row (a renamed or new
// benchmark must not silently disarm the gate). A run without -benchmem has
// nothing to compare and matches nothing.
func checkAllocGuard(pattern string, guards map[string]float64, run map[string]*metrics) error {
	re, err := regexp.Compile(pattern)
	if err != nil {
		return fmt.Errorf("-guard-allocs %q: %v", pattern, err)
	}
	var regressed []string
	checked := 0
	for _, name := range sortedNames(run) {
		m := run[name]
		if !re.MatchString(name) || m.AllocsOp == nil {
			continue
		}
		checked++
		limit, ok := guards[name]
		if !ok {
			regressed = append(regressed, fmt.Sprintf("%s: %.0f allocs/op, no row in %s", name, *m.AllocsOp, guardsFile))
		} else if *m.AllocsOp > limit {
			regressed = append(regressed, fmt.Sprintf("%s: %.0f -> %.0f allocs/op", name, limit, *m.AllocsOp))
		}
	}
	if len(regressed) > 0 {
		return fmt.Errorf("allocs/op regressed:\n  %s", strings.Join(regressed, "\n  "))
	}
	if checked == 0 {
		return fmt.Errorf("-guard-allocs %q matched no benchmark in the run", pattern)
	}
	fmt.Fprintf(os.Stderr, "benchjson: allocs/op guard: %d benchmark(s) checked, none regressed\n", checked)
	return nil
}

// checkTimeGuard fails if any benchmark matching the pattern half of the
// "PATTERN=DURATION" spec reports ns/op above the duration half. A spec
// matching nothing is an error (a renamed benchmark must not silently disarm
// the gate).
func checkTimeGuard(spec string, run map[string]*metrics) error {
	pattern, budget, ok := strings.Cut(spec, "=")
	if !ok {
		return fmt.Errorf("-guard-time %q: want PATTERN=DURATION (e.g. 'CalintFullTree=60s')", spec)
	}
	re, err := regexp.Compile(pattern)
	if err != nil {
		return fmt.Errorf("-guard-time %q: %v", spec, err)
	}
	d, err := time.ParseDuration(budget)
	if err != nil || d <= 0 {
		return fmt.Errorf("-guard-time %q: bad duration %q", spec, budget)
	}
	limit := float64(d.Nanoseconds())
	var over []string
	checked := 0
	for _, name := range sortedNames(run) {
		m := run[name]
		if !re.MatchString(name) || m.NsOp == nil {
			continue
		}
		checked++
		if *m.NsOp > limit {
			over = append(over, fmt.Sprintf("%s: %s/op, budget %s",
				name, time.Duration(*m.NsOp).Round(time.Millisecond), d))
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("runtime budget exceeded:\n  %s", strings.Join(over, "\n  "))
	}
	if checked == 0 {
		return fmt.Errorf("-guard-time %q matched no benchmark in the run", spec)
	}
	fmt.Fprintf(os.Stderr, "benchjson: runtime guard: %d benchmark(s) within %s\n", checked, d)
	return nil
}

func main() {
	guardAllocs := flag.String("guard-allocs", "", "fail if allocs/op of a benchmark matching this regexp exceeds its row in "+guardsFile)
	guardTime := flag.String("guard-time", "", "fail if ns/op exceeds an absolute budget, spec PATTERN=DURATION (e.g. 'CalintFullTree=60s')")
	flag.Parse()

	fail := func(args ...any) {
		fmt.Fprintln(os.Stderr, append([]any{"benchjson:"}, args...)...)
		os.Exit(1)
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	run, err := parse(sc)
	if err != nil {
		fail(err)
	}
	if len(run) == 0 {
		fail("no benchmark lines on stdin")
	}
	b, err := orderedJSON(run)
	if err != nil {
		fail(err)
	}
	os.Stdout.Write(b)

	if *guardAllocs != "" {
		raw, err := os.ReadFile(guardsFile)
		if err != nil {
			fail(err)
		}
		var guards map[string]float64
		if err := json.Unmarshal(raw, &guards); err != nil {
			fail(guardsFile+":", err)
		}
		if err := checkAllocGuard(*guardAllocs, guards, run); err != nil {
			fail(err)
		}
	}
	if *guardTime != "" {
		if err := checkTimeGuard(*guardTime, run); err != nil {
			fail(err)
		}
	}
}

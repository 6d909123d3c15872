// Command bench is the repository's benchmark: Π_ℤ (ProtoOptimal) run the
// way a deployment runs it — loopback TCP with rejoin buffering on, through
// the session mux, with the write-ahead log — on five workloads, with
// end-to-end metrics from untraced runs and a per-layer ledger from traced
// ones. See README.md in this directory.
//
//	go run ./bench                                   # all five workloads, tracing off
//	go run ./bench -workload long_input -trace 1     # one workload's ledger
//	go run ./bench -repeat 5                         # run-to-run spread against the bounds
//	go run ./bench -workload mux_open -seed 7 -seconds 20 -trace 0   # what the driver runs
//
// The last line of standard output of a single-workload run is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name     = flag.String("workload", "", "workload to run (default: all five in turn)")
		seed     = flag.Int64("seed", 1, "seed every input derives from")
		seconds  = flag.Float64("seconds", runSeconds, "length of the measurement window")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		repeat   = flag.Int("repeat", 1, "run this many sets with seeds seed, seed+1, ... and print each metric's spread against its bound")
		contract = flag.Bool("contract", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *contract {
		raw, err := contractJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		_, _ = os.Stdout.Write(raw) // a failed write to stdout has nowhere to be reported
		return 0
	}
	if flag.NArg() > 0 || *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: need -seconds > 0, -repeat ≥ 1, -trace 0|1 and no positional arguments")
		return 2
	}
	selected := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{*w}
	}
	outDir, err := findOutDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	status := 0
	history := map[string]map[string][]float64{} // workload → metric → one value per set
	for set := 0; set < *repeat; set++ {
		for _, w := range selected {
			c := config{seed: *seed + int64(set), seconds: *seconds, traced: *trace == 1, outDir: outDir}
			var probed map[string]float64
			if c.traced {
				if probed, err = runProbes(fullProbes, filepath.Join(outDir, fmt.Sprintf("probe-%d", os.Getpid()))); err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
			}
			rep, err := measure(w, c, w.shape, probed)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			rep.print(os.Stdout)
			if err := rep.save(outDir); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			if !rep.Correct {
				status = 1
			}
			if history[w.name] == nil {
				history[w.name] = map[string][]float64{}
			}
			for _, mv := range rep.Metrics {
				history[w.name][mv.Name] = append(history[w.name][mv.Name], mv.Value)
			}
			// The driver reads the last line of a single-workload run.
			line, err := rep.driverLine()
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			fmt.Println(line)
		}
	}
	if *repeat > 1 && !printSpreads(selected, history, *repeat) {
		status = 1
	}
	return status
}

// findOutDir creates the output directory inside the benchmark's own
// directory whether the command runs from the repository root (go run
// ./bench) or from bench/ itself (go test, go run .).
func findOutDir() (string, error) {
	for _, dir := range []string{"bench", "."} {
		if _, err := os.Stat(filepath.Join(dir, "main.go")); err == nil {
			out := filepath.Join(dir, "out")
			return out, os.MkdirAll(out, 0o755)
		}
	}
	return "", fmt.Errorf("run from the repository root or from bench/: the output directory bench/out is placed relative to it")
}

// metricValue is one reported metric.
type metricValue struct {
	Name    string  `json:"metric"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples,omitempty"`
	Note    string  `json:"note,omitempty"`
}

// report is the machine-readable result of one run of one workload, saved
// as <out>/<workload>.result.json (…trace.result.json for a traced run).
type report struct {
	Workload  string        `json:"workload"`
	Why       string        `json:"why"`
	Seed      int64         `json:"seed"`
	Seconds   float64       `json:"seconds"`
	Traced    bool          `json:"traced"`
	Correct   bool          `json:"correct"`
	Attempted int           `json:"attempted"`
	Failed    int           `json:"failed"`
	Gate      []string      `json:"gate_violations,omitempty"`
	Notes     []string      `json:"notes,omitempty"`
	Metrics   []metricValue `json:"metrics"`
	TraceFile string        `json:"trace_file,omitempty"`
	Host      fingerprint   `json:"host"`
}

// measure runs one workload once and turns what it measured into the
// metrics of the contract: every end-to-end metric on an untraced run,
// every per-layer metric on a traced one, where probed supplies the lines
// that come from the direct probes.
func measure(w workload, c config, sh shape, probed map[string]float64) (*report, error) {
	r, err := w.run(c, sh)
	if err != nil {
		return nil, err
	}
	rep := &report{
		Workload: w.name, Why: w.why, Seed: c.seed, Seconds: c.seconds, Traced: c.traced,
		Attempted: r.attempted, Failed: r.failed, Gate: r.gate, Notes: r.notes,
		Host: hostFingerprint(c.outDir),
	}
	rep.Correct = r.failed == 0 && len(r.gate) == 0 && r.attempted > 0
	per := float64(max(r.agreements, 1))
	if !c.traced {
		n := len(r.latencyMS)
		p90, segments := steadyP90(r.latencyMS)
		tail := fmt.Sprintf("median of the p90s of %d consecutive segments", segments)
		if beyond := samplesBeyond(n, 90); beyond < tailSamples {
			tail += fmt.Sprintf("; only %d samples beyond the run's p90", beyond)
		}
		values := map[string]metricValue{
			"setup_s":                {Value: median(r.setupS), Samples: len(r.setupS)},
			"agreements_per_s":       {Value: median(r.ratePerS), Samples: len(r.ratePerS)},
			"latency_p50_ms":         {Value: percentile(r.latencyMS, 50), Samples: n},
			"latency_p90_ms":         {Value: p90, Samples: n, Note: tail},
			"alloc_mb_per_agreement": {Value: float64(r.use.alloc) / 1e6 / per, Samples: r.agreements},
			"peak_rss_mb":            {Value: peakRSSMB(), Samples: 1},
		}
		for _, def := range endToEnd {
			mv := values[def.Name]
			mv.Name, mv.Unit = def.Name, def.Unit
			rep.Metrics = append(rep.Metrics, mv)
		}
		return rep, nil
	}

	r.layer["runtime.cpu_ms_per_agreement"] = ms(r.use.cpu) / per
	r.layer["runtime.gc_pause_ms"] = ms(r.use.gcPause)
	r.layer["runtime.mallocs_per_agreement"] = float64(r.use.mallocs) / per
	for _, def := range perLayer {
		v, ok := probed[def.Name]
		if !ok {
			v = r.layer[def.Name] // absent: the workload does not exercise this layer
		}
		rep.Metrics = append(rep.Metrics, metricValue{Name: def.Name, Unit: def.Unit, Value: v})
	}
	if len(r.traces) > 0 {
		if rep.TraceFile, err = writeTrace(c.outDir, w.name, r.traces); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func (rep *report) print(out *os.File) {
	mode := "tracing off, end-to-end metrics"
	if rep.Traced {
		mode = "traced, per-layer metrics"
	}
	fmt.Fprintf(out, "== %s  seed=%d  window=%.0fs  %s\n", rep.Workload, rep.Seed, rep.Seconds, mode)
	fmt.Fprintf(out, "   %s\n", rep.Why)
	fmt.Fprintf(out, "   message delay injected: 0 (latency is processor + syscall time; Δ = %v is never reached)\n", delta)
	fmt.Fprintf(out, "   host: nproc=%d GOMAXPROCS=%d %s kernel=%s out=%s (%s)\n",
		rep.Host.NProc, rep.Host.GOMAXPROCS, rep.Host.GoVersion, rep.Host.Kernel, rep.Host.OutDir, rep.Host.OutDirFS)
	for _, mv := range rep.Metrics {
		note := ""
		if mv.Note != "" {
			note = "  (" + mv.Note + ")"
		}
		samples := ""
		if mv.Samples > 0 {
			samples = fmt.Sprintf("samples=%d", mv.Samples)
		}
		fmt.Fprintf(out, "   %-32s %16.6g %-6s %s%s\n", mv.Name, mv.Value, mv.Unit, samples, note)
	}
	failedFrac := 0.0
	if rep.Attempted > 0 {
		failedFrac = float64(rep.Failed) / float64(rep.Attempted)
	}
	fmt.Fprintf(out, "   %-32s %16.6g %-6s attempted=%d failed=%d\n", "failed_frac", failedFrac, "frac", rep.Attempted, rep.Failed)
	for _, g := range rep.Gate {
		fmt.Fprintf(out, "   GATE: %s\n", g)
	}
	for _, n := range rep.Notes {
		fmt.Fprintf(out, "   note: %s\n", n)
	}
	if rep.TraceFile != "" {
		fmt.Fprintf(out, "   trace: %s\n", rep.TraceFile)
	}
}

func (rep *report) save(dir string) error {
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	suffix := ".result.json"
	if rep.Traced {
		suffix = ".traced.result.json"
	}
	return os.WriteFile(filepath.Join(dir, rep.Workload+suffix), append(raw, '\n'), 0o644)
}

// driverLine is the one-line result the benchmark contract asks for.
func (rep *report) driverLine() (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]mv{}}
	for _, m := range rep.Metrics {
		line.Metrics[m.Name] = mv{m.Value, m.Unit}
	}
	raw, err := json.Marshal(line)
	return string(raw), err
}

// printSpreads prints, per workload and metric, the median over the sets
// and the quartile spread as a share of it, against the metric's bound.
// It reports whether every bounded metric stayed within its bound; a
// spread above a third of the bound is marked as a warning.
func printSpreads(selected []workload, history map[string]map[string][]float64, sets int) bool {
	bounds := map[string]float64{}
	for _, def := range endToEnd {
		bounds[def.Name] = *def.Bound
	}
	ok := true
	for _, w := range selected {
		fmt.Printf("== %s: spread over %d sets (quartile distance / median)\n", w.name, sets)
		names := make([]string, 0, len(history[w.name]))
		for name := range history[w.name] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			v := history[w.name][name]
			spread := quartileSpread(v)
			verdict := ""
			if bound, bounded := bounds[name]; bounded {
				switch {
				case name == "setup_s":
					verdict = fmt.Sprintf("bound %.2f (spread exempt)", bound)
				case spread > bound:
					verdict = fmt.Sprintf("bound %.2f  EXCEEDED", bound)
					ok = false
				case spread > bound/3:
					verdict = fmt.Sprintf("bound %.2f  above a third of it", bound)
				default:
					verdict = fmt.Sprintf("bound %.2f  ok", bound)
				}
			}
			fmt.Printf("   %-32s median %14.6g  spread %7.4f  %s\n", name, median(v), spread, verdict)
		}
	}
	return ok
}

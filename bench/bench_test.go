package main

import (
	"errors"
	"io"
	"io/fs"
	"math/big"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	ca "convexagreement"
)

// toy shapes: every workload's own code at n = 4 and a handful of
// agreements, so the whole file stays a few seconds of tier-1 time.
var toy = map[string]shape{
	"mux_closed":  {n: 4, t: 1, concurrent: 3, warmup: 1, setups: 2, block: 1, exact: 3},
	"mux_open":    {n: 4, t: 1, rate: 40, warmup: 1, setups: 2, exact: 2},
	"long_input":  {n: 4, t: 1, bits: 1 << 12, warmup: 1, setups: 2, block: 1, exact: 1},
	"durable_seq": {n: 4, t: 1, warmup: 1, setups: 2, block: 1, exact: 1},
	"sim_byz":     {n: 4, t: 1, bits: 256, warmup: 1, setups: 2, block: 9, plan: 18, exact: 9},
}

var toyProbes = probeSizes{budget: time.Millisecond, bits: 1 << 12, payload: 4 << 10, rounds: 4, live: 4}

// toyRun runs one workload at toy scale. probed stands in for the direct
// probes on a traced run; nil leaves their lines at 0.
func toyRun(t *testing.T, name string, seed int64, traced bool, probed map[string]float64) *report {
	t.Helper()
	w := workloadByName(name)
	if w == nil {
		t.Fatalf("no workload %q", name)
	}
	rep, err := measure(*w, config{seed: seed, seconds: 0.2, traced: traced, outDir: t.TempDir()}, toy[name], probed)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d gate=%v notes=%v", name, rep.Correct, rep.Attempted, rep.Failed, rep.Gate, rep.Notes)
	}
	return rep
}

// checkMetrics asserts rep carries exactly the metrics of defs, once each,
// with their units.
func checkMetrics(t *testing.T, rep *report, defs []metric) {
	t.Helper()
	seen := map[string]int{}
	units := map[string]string{}
	for _, mv := range rep.Metrics {
		seen[mv.Name]++
		units[mv.Name] = mv.Unit
	}
	for _, def := range defs {
		if seen[def.Name] != 1 {
			t.Errorf("%s: metric %s emitted %d times, want once", rep.Workload, def.Name, seen[def.Name])
		}
		if units[def.Name] != def.Unit {
			t.Errorf("%s: metric %s has unit %q, want %q", rep.Workload, def.Name, units[def.Name], def.Unit)
		}
	}
	if len(rep.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, contract has %d", rep.Workload, len(rep.Metrics), len(defs))
	}
	if _, err := rep.driverLine(); err != nil {
		t.Errorf("%s: driver line: %v", rep.Workload, err)
	}
}

func value(t *testing.T, rep *report, name string) float64 {
	t.Helper()
	for _, mv := range rep.Metrics {
		if mv.Name == name {
			return mv.Value
		}
	}
	t.Fatalf("%s: no metric %s", rep.Workload, name)
	return 0
}

// TestSmoke runs all five workloads at toy scale, untraced and traced, and
// checks the emitted metric set against the contract.
func TestSmoke(t *testing.T) {
	probed, err := runProbes(toyProbes, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range perLayer[len(perLayer)-len(probed):] {
		if v, ok := probed[def.Name]; !ok || !(v > 0) {
			t.Errorf("probe metric %s = %v, want a positive measurement", def.Name, v)
		}
	}
	for _, w := range workloads {
		w := w
		// In parallel: the toy runs are mostly waits (dials, the
		// modelled fsync), and nothing here asserts a timing.
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			rep := toyRun(t, w.name, 1, false, nil)
			checkMetrics(t, rep, endToEnd)
			for _, def := range endToEnd {
				if v := value(t, rep, def.Name); !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, must never be 0", def.Name, v)
				}
			}
			traced := toyRun(t, w.name, 1, true, probed)
			checkMetrics(t, traced, perLayer)
			if w.name == "sim_byz" {
				return
			}
			if traced.TraceFile == "" {
				t.Error("traced run wrote no trace file")
			}
			rounds := value(t, traced, "proto.rounds")
			if !(rounds > 0) {
				t.Errorf("proto.rounds = %v in a traced run", rounds)
			}
			if v := value(t, traced, "trace.residual_frac"); v < 0 || v > 0.5 {
				t.Errorf("trace.residual_frac = %v", v)
			}
			// One fsync per round plus the instance and end records, per party.
			if syncs := value(t, traced, "checkpoint.syncs"); w.name == "durable_seq" && syncs != rounds+2 {
				t.Errorf("%v fsyncs for %v rounds, want rounds+2", syncs, rounds)
			}
		})
	}
}

// TestSameSeedSameCounts: the count metrics are functions of the seed.
func TestSameSeedSameCounts(t *testing.T) {
	exact := map[string][]string{
		"mux_closed": {"proto.rounds", "proto.bytes_out", "ba.rounds", "baplus.bytes_out"},
		"sim_byz":    {"proto.rounds", "proto.bytes_out", "sim.rounds", "sim.messages", "sim.honest_bits"},
	}
	for name, metrics := range exact {
		a, b := toyRun(t, name, 7, true, nil), toyRun(t, name, 7, true, nil)
		for _, m := range metrics {
			if va, vb := value(t, a, m), value(t, b, m); va != vb || va == 0 {
				t.Errorf("%s: %s = %v and %v on the same seed", name, m, va, vb)
			}
		}
	}
	// On the simulator the seed picks the corrupted parties and their
	// randomness, so another seed must move the counts. (On the TCP
	// workloads it must not: every agreement is shaped alike by design.)
	a, other := toyRun(t, "sim_byz", 7, true, nil), toyRun(t, "sim_byz", 8, true, nil)
	if value(t, a, "sim.honest_bits") == value(t, other, "sim.honest_bits") {
		t.Error("sim_byz: sim.honest_bits is the same on seeds 7 and 8")
	}
}

// TestInputsFromSeed: inputs are a function of the seed, every agreement
// gets a hull of its own, and the hulls are shaped alike.
func TestInputsFromSeed(t *testing.T) {
	draw := func(seed int64) [][]*big.Int {
		rng := rand.New(rand.NewSource(seed))
		return [][]*big.Int{smallInputs(rng, 7), smallInputs(rng, 7), longInputs(rng, 7, 1<<10)}
	}
	a, b, other := draw(1), draw(1), draw(2)
	for i := range a {
		for p := range a[i] {
			if a[i][p].Cmp(b[i][p]) != 0 {
				t.Fatalf("draw %d party %d differs on the same seed", i, p)
			}
		}
		if a[i][0].Cmp(other[i][0]) == 0 {
			t.Errorf("draw %d is the same on seeds 1 and 2", i)
		}
	}
	width := func(ins []*big.Int) *big.Int {
		lo, hi, err := ca.Hull(ins)
		if err != nil {
			t.Fatal(err)
		}
		return new(big.Int).Sub(hi, lo)
	}
	if a[0][0].Cmp(a[1][0]) == 0 || width(a[0]).Cmp(width(a[1])) != 0 {
		t.Errorf("two agreements: first inputs %v and %v, hull widths %v and %v; want distinct hulls of one width",
			a[0][0], a[1][0], width(a[0]), width(a[1]))
	}
	if got := a[2][0].BitLen(); got != 1<<10 {
		t.Errorf("long input has %d bits, want %d", got, 1<<10)
	}
}

func TestPercentile(t *testing.T) {
	v := []float64{50, 10, 40, 20, 30}
	for _, tc := range []struct{ p, want float64 }{{50, 30}, {90, 50}, {20, 10}, {21, 20}, {100, 50}} {
		if got := percentile(v, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if v[0] != 50 {
		t.Error("percentile reordered its argument")
	}
	// The "at least ten samples beyond" rule: p90 needs 100 samples.
	for _, tc := range []struct{ n, beyond int }{{99, 9}, {100, 10}, {45, 4}, {10, 1}} {
		if got := samplesBeyond(tc.n, 90); got != tc.beyond {
			t.Errorf("samplesBeyond(%d, 90) = %d, want %d", tc.n, got, tc.beyond)
		}
	}
	// steadyP90: one slow stretch moves the p90 of the run, not the median
	// of the segments' p90s.
	run := make([]float64, 50)
	for i := range run {
		run[i] = 100 + float64(i%10)
	}
	for i := 12; i < 19; i++ {
		run[i] = 500
	}
	if got, k := steadyP90(run); got != 108 || k != 5 {
		t.Errorf("steadyP90 = %v over %d segments, want 108 over 5", got, k)
	}
	if got := percentile(run, 90); got != 500 {
		t.Errorf("p90 of the whole run = %v, want 500", got)
	}
	if got, k := steadyP90(run[:19]); got != percentile(run[:19], 90) || k != 1 {
		t.Errorf("steadyP90 of 19 samples = %v over %d segments, want the plain p90", got, k)
	}
	// statistics.quantiles(range(1, 11), n=4) is [2.75, 5.5, 8.25].
	if got := quartileSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("quartileSpread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// TestWALDevice checks the modelled device against what the checkpoint
// layer asks of an errfs.FS: a missing file reads as fs.ErrNotExist, bytes
// written come back after a Seek, and Truncate and O_TRUNC cut the file.
func TestWALDevice(t *testing.T) {
	dev := &walFS{}
	if _, err := dev.OpenFile("state/wal", os.O_RDWR, 0o644); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("open of a missing file: %v, want fs.ErrNotExist", err)
	}
	f, err := dev.OpenFile("state/wal", os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []string{"first ", "second"} {
		if n, err := f.Write([]byte(rec)); n != len(rec) || err != nil {
			t.Fatalf("Write(%q) = %d, %v", rec, n, err)
		}
	}
	if err := f.Truncate(9); err != nil {
		t.Fatal(err)
	}
	g, err := dev.OpenFile("state/wal", os.O_RDWR, 0o644) // a second handle sees the same bytes
	if err != nil {
		t.Fatal(err)
	}
	if size, err := g.Seek(0, io.SeekEnd); size != 9 || err != nil {
		t.Fatalf("Seek to the end = %d, %v, want 9", size, err)
	}
	if _, err := g.Seek(6, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if got, err := io.ReadAll(g); string(got) != "sec" || err != nil {
		t.Fatalf("read after Seek(6) = %q, %v, want %q", got, err, "sec")
	}
	if _, err := dev.OpenFile("state/wal", os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644); err != nil {
		t.Fatal(err)
	}
	if size, _ := g.Seek(0, io.SeekEnd); size != 0 {
		t.Fatalf("size after O_TRUNC = %d, want 0", size)
	}
}

// TestLayerOf classifies every label a real Agree run produces, over
// shapes that reach both FixedLengthCA and FixedLengthCABlocks and both
// signs. A label with an unknown leaf fails here before it can fail a run.
func TestLayerOf(t *testing.T) {
	seen := map[string]bool{}
	for _, n := range []int{4, 7} {
		for _, bits := range []uint{8, 300} {
			inputs := make([]*big.Int, n)
			for p := range inputs {
				inputs[p] = new(big.Int).Lsh(big.NewInt(int64(1000+13*p)), bits)
				if p%2 == 1 && bits == 8 {
					inputs[p].Neg(inputs[p])
				}
			}
			res, err := ca.Agree(inputs, ca.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for label := range res.BitsByLabel {
				layer := layerOf(label)
				if layer == "" {
					t.Errorf("label %q (n=%d, %d-bit inputs) belongs to no layer", label, n, bits)
				}
				seen[layer] = true
			}
		}
	}
	for _, l := range protoLayers[layerBA:] {
		if !seen[l] {
			t.Errorf("no label of layer %s seen: the classifier or the test's shapes are stale", l)
		}
	}
	if got := layerOf("ca/mag/new-step"); got != "" {
		t.Errorf("unknown leaf classified as %q", got)
	}
}

// TestContractFile keeps BENCHMARK.json and the metric tables identical.
func TestContractFile(t *testing.T) {
	want, err := contractJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("BENCHMARK.json differs from `go run ./bench -contract`; regenerate it")
	}
	for _, w := range workloads {
		if len(w.why) > 200 || strings.ContainsAny(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
}

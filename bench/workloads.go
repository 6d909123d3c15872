package main

import (
	"fmt"
	"math/big"
	"math/rand"
	"time"

	ca "convexagreement"
)

// Common rules of every workload. All parties are hosted in this process
// with GOMAXPROCS at its default (nproc), over loopback TCP with no injected
// message delay: latency is processor + syscall time, and Δ = 5 s is never
// reached. The n-party cluster is the system under test; the harness adds
// one driver goroutine per party. Inputs derive from -seed only. Warm-up
// steps run before the measurement window and are discarded. Timed metrics
// are medians over per-step samples, never total/elapsed, so that one
// noisy-neighbour burst does not move them. Every agreement is verified.

// shape sizes a workload. Tests run the same code at toy scale.
type shape struct {
	n, t       int
	concurrent int     // mux_closed: sessions per wave
	rate       float64 // mux_open: arrivals per second
	bits       int     // input length, where the workload fixes it
	warmup     int     // steps discarded before the window (mux_open: first sessions)
	setups     int     // how many times set-up is timed
	block      int     // closed loops: steps per throughput sample
	plan       int     // sim_byz: agreements generated at set-up
	exact      int     // leading (traced) agreements the exact counts are taken over; mux_open's trace block
}

type workload struct {
	name  string
	why   string
	shape shape
	run   func(c config, sh shape) (*result, error)
}

// workloads is the fixed set. Order is the order of a full run.
var workloads = []workload{
	{
		name:  "mux_closed",
		why:   "closed loop, waves of 64 concurrent muxed Pi_Z sessions, n=16 TCP rejoin on: capacity; sessmux merge/demux, tcpnet and wire dominate",
		shape: shape{n: 16, t: 5, concurrent: 64, warmup: 1, setups: 25, block: 1, exact: 64},
		run:   runMuxClosed,
	},
	{
		name:  "mux_open",
		why:   "open loop at 4/s (about 30% of capacity) on the same mesh, latency from due time: few live sessions, many small ticks; a batching gain that delays ticks shows here",
		shape: shape{n: 16, t: 5, rate: 4, warmup: 3, setups: 25, exact: 8},
		run:   runMuxOpen,
	},
	{
		name:  "long_input",
		why:   "sequential Pi_Z on 2^21-bit inputs, n=7 TCP: the paper's O(ln) regime; bitstr, rs/gf16, merkle/hashing, baplus.Long dominate, rounds are negligible",
		shape: shape{n: 7, t: 2, bits: 1 << 21, warmup: 3, setups: 25, block: 1, exact: 4},
		run:   runLongInput,
	},
	{
		name:  "durable_seq",
		why:   "sequential 64-bit Pi_Z with the WAL on (fsync modelled as 1 ms), n=7 TCP rejoin on: the recoverable configuration; checkpoint append+fsync per round dominates",
		shape: shape{n: 7, t: 2, warmup: 3, setups: 25, block: 1, exact: 4},
		run:   runDurableSeq,
	},
	{
		name:  "sim_byz",
		why:   "simulator, n=16 with t=5 corrupted parties cycling all nine adversaries, 4096-bit inputs: protocol layer at f=t with no transport; bypass workload and source of exact counts",
		shape: shape{n: 16, t: 5, bits: 4096, warmup: 3, setups: 25, block: 9, plan: 1024, exact: 45},
		run:   runSimByz,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// config is one run's arguments.
type config struct {
	seed    int64
	seconds float64
	traced  bool
	outDir  string // result and trace files go here
}

// result is what one run of one workload measured.
type result struct {
	attempted int
	failed    int
	gate      []string // correctness-gate violations; any entry fails the run

	setupS    []float64 // one per set-up repetition
	latencyMS []float64 // one per timed agreement
	ratePerS  []float64 // one per throughput block

	agreements int   // completed inside the resource window
	use        usage // resource delta over the window
	elapsed    time.Duration

	layer  map[string]float64 // per-layer metrics the workload itself yields
	traces []*agreementTrace
	notes  []string
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.notes) < 8 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// step is one unit of a closed loop: a wave of concurrent sessions or one
// sequential agreement.
type step struct {
	latencyMS []float64 // one per agreement in the step
	keys      []int     // agreement keys, parallel to latencyMS
	failures  []string  // one per failed or unverified agreement
	elapsed   time.Duration
	traced    bool
}

// closedLoop runs warm-up steps, then timed steps until the window is used
// up: whole throughput blocks only, so the resource window covers the same
// mix of steps on every run. draw() makes the next step's inputs and do(i,
// traced) runs step i on them.
//
// An untraced run draws before every step. A traced run draws before every
// second step and runs the pair on the same inputs, one step traced and one
// not, in alternating order: the median ratio within pairs is the tracing
// overhead, free of the variation between inputs.
func closedLoop(c config, sh shape, r *result, tr *tracer, draw func(), do func(i int, traced bool) (step, error)) error {
	i := 0
	for ; i < sh.warmup; i++ {
		draw()
		st, err := do(i, false)
		if err != nil {
			return fmt.Errorf("warm-up step %d: %w", i, err)
		}
		for _, f := range st.failures {
			r.fail("warm-up step %d: %s", i, f)
		}
	}
	window := time.Duration(c.seconds * float64(time.Second))
	// Steps are added in units of whole blocks and whole pairs, and another
	// unit is started only while at least half of it fits the window.
	unit := sh.block
	if tr != nil && unit%2 == 1 {
		unit *= 2
	}
	var steps []step
	before := readUsage()
	start := now()
	for last := time.Duration(0); len(steps)%unit != 0 || len(steps) == 0 || since(start)+time.Duration(unit)*last/2 < window; i++ {
		k := len(steps)
		if tr == nil || k%2 == 0 {
			draw()
		}
		st, err := do(i, tr != nil && k%2 == (k/2)%2)
		if err != nil {
			return fmt.Errorf("step %d: %w", i, err)
		}
		last = st.elapsed
		steps = append(steps, st)
	}
	r.elapsed = since(start)
	r.use = readUsage().sub(before)

	harness := map[int]float64{}
	var overhead []float64
	blockN, blockT := 0, time.Duration(0)
	for k, st := range steps {
		r.attempted += len(st.latencyMS) + len(st.failures)
		for _, f := range st.failures {
			r.fail("%s", f)
		}
		r.agreements += len(st.latencyMS)
		r.latencyMS = append(r.latencyMS, st.latencyMS...)
		for j, key := range st.keys {
			harness[key] = st.latencyMS[j]
		}
		if tr != nil && k%2 == 1 {
			with, without := st, steps[k-1]
			if without.traced {
				with, without = without, with
			}
			overhead = append(overhead, ms(with.elapsed)/ms(without.elapsed)-1)
		}
		blockN += len(st.latencyMS)
		blockT += st.elapsed
		if (k+1)%sh.block == 0 {
			r.ratePerS = append(r.ratePerS, float64(blockN)/blockT.Seconds())
			blockN, blockT = 0, 0
		}
	}
	return r.addLedger(tr, harness, overhead, sh.exact)
}

// addLedger folds a traced run's spans into the result's layer metrics.
// harnessMS is the end-to-end latency the harness saw per agreement key;
// overhead holds samples of (time traced / time untraced − 1). A nil tracer
// is an untraced run.
func (r *result) addLedger(tr *tracer, harnessMS map[int]float64, overhead []float64, exact int) error {
	if tr == nil {
		return nil
	}
	r.traces = tr.done
	led, err := ledger(r.traces, harnessMS, exact)
	if err != nil {
		return err
	}
	for k, v := range led {
		r.layer[k] = v
	}
	r.layer["trace.overhead_frac"] = median(overhead)
	return nil
}

// mustBeZero records a counter that a healthy run leaves at zero and fails
// the run when it is not.
func (r *result) mustBeZero(name string, v float64) {
	r.layer[name] = v
	if v != 0 {
		r.gate = append(r.gate, fmt.Sprintf("%s = %v, must be 0", name, v))
	}
}

// repeatSetup times setup k times, tearing down every instance but the
// last, which it returns with all k durations in seconds.
func repeatSetup[T any](k int, setup func(rep int) (T, error), teardown func(T)) (T, []float64, error) {
	var last T
	var secs []float64
	for rep := 0; rep < k; rep++ {
		if rep > 0 {
			teardown(last)
		}
		start := now()
		v, err := setup(rep)
		if err != nil {
			var zero T
			return zero, nil, fmt.Errorf("set-up %d: %w", rep, err)
		}
		secs = append(secs, since(start).Seconds())
		last = v
	}
	return last, secs, nil
}

// smallInputs draws one agreement's inputs: 64-bit magnitudes of one sign
// in a hull of their own. The base (top 48 bits) and the sign come from the
// seed; party p's low 16 bits are a fixed spread. The inputs of every
// agreement then relate to each other the same way, Π_ℤ takes the same
// number of rounds on each (its path depends on where inputs differ, not on
// the shared bits), and per-agreement samples measure the system rather
// than the draw.
func smallInputs(rng *rand.Rand, n int) []*big.Int {
	base := (rng.Uint64() | 1<<63) &^ 0xffff
	neg := rng.Intn(2) == 1
	ins := make([]*big.Int, n)
	for p := range ins {
		v := new(big.Int).SetUint64(base | uint64(p*40503%(1<<16)))
		if neg {
			v.Neg(v)
		}
		ins[p] = v
	}
	return ins
}

// randomBits draws a uniformly random integer of exactly bits bits.
func randomBits(rng *rand.Rand, bits int) *big.Int {
	v := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(bits-1)))
	return v.SetBit(v, bits-1, 1)
}

// longInputs draws n inputs of the given length that share their top half,
// so FindPrefix has real work and the suffix still differs per party.
func longInputs(rng *rand.Rand, n, bits int) []*big.Int {
	half := bits / 2
	top := new(big.Int).Lsh(randomBits(rng, bits-half), uint(half))
	ins := make([]*big.Int, n)
	for p := range ins {
		low := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(half)))
		ins[p] = low.Add(low, top)
	}
	return ins
}

// verify checks Agreement and Convex Validity for one agreement: every
// output equal, and inside the hull of the honest inputs.
func verify(outs []*big.Int, honestInputs []*big.Int) error {
	for p, out := range outs {
		if out == nil {
			return fmt.Errorf("party %d produced no output", p)
		}
		if out.Cmp(outs[0]) != 0 {
			return fmt.Errorf("disagreement: party %d has %v, party 0 has %v", p, out, outs[0])
		}
	}
	if !ca.InHull(outs[0], honestInputs) {
		return fmt.Errorf("output outside the honest hull")
	}
	return nil
}

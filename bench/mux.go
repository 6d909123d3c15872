package main

import (
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"sync"
	"time"

	ca "convexagreement"
)

// muxCluster is the shared mesh of the two mux workloads: one TCP mesh and
// one SessionMux per party over it.
type muxCluster struct {
	mesh  *mesh
	muxes []*ca.SessionMux
}

func setupMux(n, t int) (*muxCluster, error) {
	m, err := dialMesh(n, t)
	if err != nil {
		return nil, err
	}
	mc := &muxCluster{mesh: m, muxes: make([]*ca.SessionMux, n)}
	for p, tr := range m.trs {
		mc.muxes[p] = ca.NewSessionMux(tr)
	}
	return mc, nil
}

func (mc *muxCluster) close() { mc.mesh.close() }

// gate adds the mux and mesh counters that must be zero on a healthy run to
// the result, and fails the run on any that is not.
func (mc *muxCluster) gate(r *result) {
	var copied, shed uint64
	for _, sm := range mc.muxes {
		st := sm.Stats()
		copied += st.BytesCopied
		shed += st.SessionShed + st.TickShed
	}
	r.mustBeZero("sessmux.bytes_copied", float64(copied))
	r.mustBeZero("sessmux.shed", float64(shed))
	mc.mesh.gate(r)
}

// runSession drives one party's side of one muxed session and returns its
// output. When tr is non-nil the session's transport is traced. The tracer
// wraps the MuxedTransport, never the base TCPTransport: wrapping the base
// would hide its VecNet path from the mux and measure a different program.
func runSession(mt *ca.MuxedTransport, tr *tracer, key, party int, input *big.Int) (*big.Int, error) {
	defer mt.Close()
	if tr == nil {
		return ca.RunParty(mt, ca.ProtoOptimal, 0, input)
	}
	at := tr.begin(key, party)
	out, err := ca.RunParty(&tracingTransport{Transport: mt, tr: tr, cur: at}, ca.ProtoOptimal, 0, input)
	tr.finish(at)
	return out, err
}

// wave is one closed-loop step: the same sessions opened by every party on
// the same tick, driven concurrently.
type wave struct {
	first  int          // key and sid-1 of the wave's first session
	inputs [][]*big.Int // [session][party]
	tr     *tracer      // nil: untraced
	start  time.Time

	outs   [][]*big.Int      // [session][party], each cell written by one goroutine
	doneAt [][]time.Duration // since start, likewise
}

// runWaveParty is party p's side of a wave. All of the wave's sessions are
// opened before any is driven, so that they land on one tick.
func runWaveParty(sm *ca.SessionMux, p int, sh shape, w *wave) error {
	mts := make([]*ca.MuxedTransport, len(w.inputs))
	for s := range mts {
		mt, err := sm.Open(uint64(w.first+s+1), sh.n, sh.t)
		if err != nil {
			return fmt.Errorf("party %d open sid %d: %w", p, w.first+s+1, err)
		}
		mts[s] = mt
	}
	errs := make([]error, len(mts))
	var wg sync.WaitGroup
	for s := range mts {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			w.outs[s][p], errs[s] = runSession(mts[s], w.tr, w.first+s, p, w.inputs[s][p])
			w.doneAt[s][p] = since(w.start)
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			return fmt.Errorf("party %d session %d: %w", p, w.first+s, err)
		}
	}
	return nil
}

func runMuxClosed(c config, sh shape) (*result, error) {
	r := &result{layer: map[string]float64{}}
	mc, setups, err := repeatSetup(sh.setups, func(int) (*muxCluster, error) { return setupMux(sh.n, sh.t) }, (*muxCluster).close)
	if err != nil {
		return nil, err
	}
	defer mc.close()
	r.setupS = setups

	rng := rand.New(rand.NewSource(c.seed))
	var tr *tracer
	if c.traced {
		tr = newTracer()
	}
	var ticks0, packets0 uint64
	inputs := make([][]*big.Int, sh.concurrent)
	draw := func() {
		for s := range inputs {
			inputs[s] = smallInputs(rng, sh.n)
		}
	}
	err = closedLoop(c, sh, r, tr, draw, func(i int, traced bool) (step, error) {
		if i == sh.warmup {
			st := mc.muxes[0].Stats()
			ticks0, packets0 = st.Ticks, st.Packets
		}
		w := &wave{first: i * sh.concurrent, inputs: append([][]*big.Int(nil), inputs...)}
		w.outs = make([][]*big.Int, sh.concurrent)
		w.doneAt = make([][]time.Duration, sh.concurrent)
		for s := range w.inputs {
			w.outs[s] = make([]*big.Int, sh.n)
			w.doneAt[s] = make([]time.Duration, sh.n)
		}
		if traced {
			w.tr = tr
		}
		// One driver goroutine per party, as a deployment has one process.
		errs := make([]error, sh.n)
		var drivers sync.WaitGroup
		w.start = now()
		for p := range errs {
			drivers.Add(1)
			go func(p int) {
				defer drivers.Done()
				errs[p] = runWaveParty(mc.muxes[p], p, sh, w)
			}(p)
		}
		drivers.Wait()
		st := step{elapsed: since(w.start), traced: traced}
		for _, err := range errs {
			if err != nil {
				// A party that failed has left its sessions; the mesh is no
				// longer in lock step and no further wave can be trusted.
				return st, err
			}
		}
		for s := range w.inputs {
			if err := verify(w.outs[s], w.inputs[s]); err != nil {
				st.failures = append(st.failures, fmt.Sprintf("session %d: %v", w.first+s, err))
				continue
			}
			st.latencyMS = append(st.latencyMS, ms(slices.Max(w.doneAt[s])))
			st.keys = append(st.keys, w.first+s)
		}
		return st, nil
	})
	if err != nil {
		return nil, err
	}
	st := mc.muxes[0].Stats()
	if ticks := st.Ticks - ticks0; ticks > 0 {
		r.layer["sessmux.ticks"] = float64(ticks)
		r.layer["sessmux.tick_us"] = us(r.elapsed) / float64(ticks)
		r.layer["sessmux.frames_per_tick"] = float64(st.Packets-packets0) / float64(ticks)
	}
	mc.gate(r)
	return r, nil
}

// sloLimit is the latency limit of the open-loop workload: a session later
// than this after its due time, or failed, misses it.
const sloLimit = 2 * time.Second

// The pacer is session 1 of the open-loop mux; arrival i is session
// i+firstSid.
const (
	pacerSid = 1
	firstSid = 2
)

// admission is the open-loop generator's shared table. Every party keeps
// the tick clock with a pacer session and, between two pacer rounds, asks
// the table which arrivals to open on this tick. Whichever party reaches a
// tick first decides — every arrival whose due time has passed — and the
// others read the same answer, so all parties open the same sessions on
// the same tick.
type admission struct {
	mu         sync.Mutex
	start      time.Time
	interval   time.Duration
	total      int
	next       int     // first arrival not yet admitted
	byTick     [][]int // arrivals admitted at each decided tick
	admittedAt []time.Duration
}

// at returns the arrivals to open on tick and whether they complete the
// schedule.
func (a *admission) at(tick int) (arrivals []int, final bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if tick == len(a.byTick) {
		elapsed := since(a.start)
		var due []int
		for a.next < a.total && time.Duration(a.next)*a.interval <= elapsed {
			a.admittedAt[a.next] = elapsed
			due = append(due, a.next)
			a.next++
		}
		a.byTick = append(a.byTick, due)
	}
	arrivals = a.byTick[tick]
	last := len(arrivals) > 0 && arrivals[len(arrivals)-1] == a.total-1
	return arrivals, last
}

func runMuxOpen(c config, sh shape) (*result, error) {
	r := &result{layer: map[string]float64{}}
	mc, setups, err := repeatSetup(sh.setups, func(int) (*muxCluster, error) { return setupMux(sh.n, sh.t) }, (*muxCluster).close)
	if err != nil {
		return nil, err
	}
	defer mc.close()
	r.setupS = setups

	interval := time.Duration(float64(time.Second) / sh.rate)
	total := int(c.seconds * sh.rate)
	if total <= sh.warmup {
		return nil, fmt.Errorf("mux_open: %d arrivals in %.1f s leave nothing after %d warm-up sessions", total, c.seconds, sh.warmup)
	}
	rng := rand.New(rand.NewSource(c.seed))
	inputs := make([][]*big.Int, total)
	outs := make([][]*big.Int, total)
	doneAt := make([][]time.Duration, total)
	for i := range inputs {
		inputs[i] = smallInputs(rng, sh.n)
		outs[i] = make([]*big.Int, sh.n)
		doneAt[i] = make([]time.Duration, sh.n)
	}
	var tr *tracer
	if c.traced {
		tr = newTracer()
	}
	// Blocks of sh.exact consecutive arrivals alternate untraced and traced.
	traced := func(i int) bool { return tr != nil && (i/sh.exact)%2 == 1 }

	var tickUS []float64 // party 0's pacer rounds; every party sees the same ticks
	errs := make([]error, sh.n)
	before := readUsage()
	adm := &admission{start: now(), interval: interval, total: total, admittedAt: make([]time.Duration, total)}
	var drivers sync.WaitGroup
	for p := 0; p < sh.n; p++ {
		drivers.Add(1)
		go func(p int) {
			defer drivers.Done()
			sessErrs := make([]error, total)
			var sessions sync.WaitGroup
			// pace keeps the tick clock and opens what the table admits.
			pace := func() error {
				sm := mc.muxes[p]
				pacer, err := sm.Open(pacerSid, sh.n, sh.t)
				if err != nil {
					return err
				}
				defer pacer.Close()
				for tick := 0; ; tick++ {
					arrivals, final := adm.at(tick)
					for _, i := range arrivals {
						mt, err := sm.Open(uint64(i+firstSid), sh.n, sh.t)
						if err != nil {
							return err
						}
						var st *tracer
						if traced(i) {
							st = tr
						}
						sessions.Add(1)
						go func(i int) {
							defer sessions.Done()
							outs[i][p], sessErrs[i] = runSession(mt, st, i, p, inputs[i][p])
							doneAt[i][p] = since(adm.start)
						}(i)
					}
					if final {
						// The live sessions keep the tick clock from here on.
						return nil
					}
					tickStart := now()
					if _, err := pacer.Exchange(nil); err != nil {
						return fmt.Errorf("pacer tick %d: %w", tick, err)
					}
					if p == 0 {
						tickUS = append(tickUS, us(since(tickStart)))
					}
				}
			}
			errs[p] = pace()
			sessions.Wait()
			for i, err := range sessErrs {
				if err != nil && errs[p] == nil {
					errs[p] = fmt.Errorf("session %d: %w", i, err)
				}
			}
		}(p)
	}
	drivers.Wait()
	r.elapsed = since(adm.start)
	r.use = readUsage().sub(before)
	for p, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("party %d: %w", p, err)
		}
	}

	harness := map[int]float64{}
	var lag, tracedMS, plainMS []float64
	misses := 0
	for i := range inputs {
		r.attempted++
		if err := verify(outs[i], inputs[i]); err != nil {
			r.fail("session %d: %v", i, err)
			misses++
			continue
		}
		r.agreements++
		lat := slices.Max(doneAt[i]) - time.Duration(i)*interval
		if lat > sloLimit {
			misses++
		}
		harness[i] = ms(lat)
		if i < sh.warmup {
			continue
		}
		r.latencyMS = append(r.latencyMS, ms(lat))
		lag = append(lag, ms(adm.admittedAt[i]-time.Duration(i)*interval))
		if traced(i) {
			tracedMS = append(tracedMS, ms(lat))
		} else {
			plainMS = append(plainMS, ms(lat))
		}
	}
	// Open loop: throughput is the offered rate unless a backlog grows, so
	// it is completions over the span they took, one sample.
	r.ratePerS = []float64{float64(r.agreements) / r.elapsed.Seconds()}
	r.layer["load.sched_lag_p50_ms"] = median(lag)
	r.layer["load.slo_miss_frac"] = float64(misses) / float64(r.attempted)

	st := mc.muxes[0].Stats()
	r.layer["sessmux.ticks"] = float64(st.Ticks)
	r.layer["sessmux.tick_us"] = median(tickUS)
	r.layer["sessmux.frames_per_tick"] = float64(st.Packets) / float64(st.Ticks)
	mc.gate(r)

	var overhead []float64
	if len(tracedMS) > 0 && len(plainMS) > 0 {
		// An open loop has no pairs: arrivals alternate in blocks, and the
		// overhead is the ratio of the blocks' median latencies.
		overhead = []float64{median(tracedMS)/median(plainMS) - 1}
	}
	if err := r.addLedger(tr, harness, overhead, sh.exact); err != nil {
		return nil, err
	}
	return r, nil
}

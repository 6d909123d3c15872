package main

import (
	"fmt"
	"math/big"
	"math/rand"
	"sync"

	ca "convexagreement"
)

// seqCluster is the deployment shape of the two sequential workloads: one
// TCP mesh and one long-lived ca.Session per party, optionally
// checkpointing through the timing filesystem.
type seqCluster struct {
	mesh     *mesh
	sessions []*ca.Session
	tts      []*tracingTransport // nil entries on an untraced run
	fss      []*walFS            // nil entries without a WAL
}

// setupSeq dials the mesh and opens the sessions. On a traced run each
// session's transport is wrapped; Session reaches a TCPTransport through
// the public interface either way, so the wrapper changes no path. With
// wal set every party checkpoints to a device of its own.
func setupSeq(sh shape, tr *tracer, wal bool) (*seqCluster, error) {
	m, err := dialMesh(sh.n, sh.t)
	if err != nil {
		return nil, err
	}
	sc := &seqCluster{
		mesh:     m,
		sessions: make([]*ca.Session, sh.n),
		tts:      make([]*tracingTransport, sh.n),
		fss:      make([]*walFS, sh.n),
	}
	for p, tcp := range m.trs {
		var transport ca.Transport = tcp
		if tr != nil {
			sc.tts[p] = &tracingTransport{Transport: tcp, tr: tr}
			transport = sc.tts[p]
		}
		sc.sessions[p] = ca.NewSession(transport)
		if !wal {
			continue
		}
		sc.fss[p] = &walFS{tr: tr}
		if err := sc.sessions[p].CheckpointOpts("state", ca.StorageOptions{FS: sc.fss[p]}); err != nil {
			sc.close()
			return nil, fmt.Errorf("party %d checkpoint: %w", p, err)
		}
	}
	return sc, nil
}

func (sc *seqCluster) close() {
	for _, s := range sc.sessions {
		if s != nil {
			_ = s.Close() // every record was fsync'd when it was appended
		}
	}
	sc.mesh.close()
}

// agree runs agreement number key on every party at once and returns the
// outputs. One goroutine per party drives its Session, as a deployment's
// party process would.
func (sc *seqCluster) agree(tr *tracer, key int, inputs []*big.Int, traced bool) ([]*big.Int, error) {
	outs := make([]*big.Int, len(inputs))
	errs := make([]error, len(inputs))
	var wg sync.WaitGroup
	for p := range inputs {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			if traced {
				at := tr.begin(key, p)
				sc.tts[p].cur = at
				if sc.fss[p] != nil {
					sc.fss[p].cur = at
				}
				defer func() {
					sc.tts[p].cur = nil
					if sc.fss[p] != nil {
						sc.fss[p].cur = nil
					}
					tr.finish(at)
				}()
			}
			outs[p], errs[p] = sc.sessions[p].Agree(ca.ProtoOptimal, 0, inputs[p])
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("party %d: %w", p, err)
		}
	}
	return outs, nil
}

// runSeq is the body of long_input and durable_seq: sequential agreements
// over one cluster, one per closed-loop step.
func runSeq(c config, sh shape, wal bool, inputs func(*rand.Rand) []*big.Int) (*result, error) {
	r := &result{layer: map[string]float64{}}
	var tr *tracer
	if c.traced {
		tr = newTracer()
	}
	sc, setups, err := repeatSetup(sh.setups, func(int) (*seqCluster, error) { return setupSeq(sh, tr, wal) }, (*seqCluster).close)
	if err != nil {
		return nil, err
	}
	defer sc.close()
	r.setupS = setups

	rng := rand.New(rand.NewSource(c.seed))
	var ins []*big.Int
	draw := func() { ins = inputs(rng) }
	err = closedLoop(c, sh, r, tr, draw, func(i int, traced bool) (step, error) {
		start := now()
		outs, err := sc.agree(tr, i, ins, traced)
		st := step{elapsed: since(start), traced: traced}
		if err != nil {
			// A poisoned Session cannot continue; neither can the run.
			return st, err
		}
		if err := verify(outs, ins); err != nil {
			st.failures = append(st.failures, fmt.Sprintf("agreement %d: %v", i, err))
			return st, nil
		}
		st.latencyMS, st.keys = []float64{ms(st.elapsed)}, []int{i}
		return st, nil
	})
	if err != nil {
		return nil, err
	}
	sc.mesh.gate(r)
	for p, s := range sc.sessions {
		if err := s.StorageErr(); err != nil {
			r.gate = append(r.gate, fmt.Sprintf("party %d storage degraded: %v", p, err))
		}
	}
	return r, nil
}

func runLongInput(c config, sh shape) (*result, error) {
	return runSeq(c, sh, false, func(rng *rand.Rand) []*big.Int { return longInputs(rng, sh.n, sh.bits) })
}

func runDurableSeq(c config, sh shape) (*result, error) {
	return runSeq(c, sh, true, func(rng *rand.Rand) []*big.Int { return smallInputs(rng, sh.n) })
}

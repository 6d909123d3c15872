package convexagreement

import (
	"fmt"
	"math/big"
	"math/rand"
	"sync"

	"convexagreement/internal/asyncaa"
	"convexagreement/internal/asyncnet"
)

// ApproxResult reports an Approximate Agreement run: unlike Convex
// Agreement, outputs may differ by up to the agreed ε, so there is no
// single Output field.
type ApproxResult struct {
	// Outputs lists each honest party's output by party index.
	Outputs map[int]*big.Int
	// Spread is the largest pairwise difference between honest outputs
	// (≤ ε on success).
	Spread *big.Int
	// Rounds and HonestBits are filled by the synchronous runner;
	// Deliveries by the asynchronous one.
	Rounds     int
	HonestBits int64
	Deliveries uint64
}

// ApproxAgree runs synchronous Approximate Agreement ([16]; §1.1 of the
// paper) over the built-in simulator: honest outputs land inside the honest
// inputs' hull and pairwise within epsilon. diameterBound must be a public
// upper bound on the honest inputs' spread; inputs are naturals. Options
// semantics match Agree (Protocol and Width are ignored).
func ApproxAgree(inputs []*big.Int, diameterBound, epsilon *big.Int, opts Options) (*ApproxResult, error) {
	c := call{protocol: protoApprox, diam: diameterBound, eps: epsilon}
	run, err := simulate(opts, inputs, c.validate, scalarGhost)
	if err != nil {
		return nil, err
	}
	return &ApproxResult{
		Outputs:    run.Outputs,
		Spread:     spreadOf(run.Outputs),
		Rounds:     run.Report.Rounds,
		HonestBits: run.Report.HonestBits,
	}, nil
}

// AsyncScheduler names a message-scheduling adversary for the asynchronous
// runner.
type AsyncScheduler string

// The built-in asynchronous schedulers.
const (
	// SchedRandom delivers a uniformly random pending message.
	SchedRandom AsyncScheduler = "random"
	// SchedLIFO always delivers the newest pending message.
	SchedLIFO AsyncScheduler = "lifo"
	// SchedDelay starves messages from the first two honest parties for as
	// long as fairness allows.
	SchedDelay AsyncScheduler = "delay"
)

// AsyncOptions configures AsyncApproxAgree.
type AsyncOptions struct {
	// N defaults to len(inputs); T to ⌊(N−1)/3⌋.
	N int
	T int
	// Scheduler defaults to SchedRandom.
	Scheduler AsyncScheduler
	// Seed seeds the scheduler and adversaries.
	Seed int64
	// Corruptions maps party index → strategy; only AdvSilent, AdvGarbage
	// and AdvGhost are meaningful in the asynchronous model (timing attacks
	// belong to the Scheduler).
	Corruptions map[int]Corruption
}

// AsyncApproxAgree runs asynchronous Approximate Agreement (Bracha reliable
// broadcast + the witness technique of [1]; the §8 future-work setting)
// under a fully adversarial message schedule.
func AsyncApproxAgree(inputs []*big.Int, diameterBound, epsilon *big.Int, opts AsyncOptions) (*ApproxResult, error) {
	shape, err := normalize(len(inputs), Options{N: opts.N, T: opts.T, Corruptions: opts.Corruptions})
	if err != nil {
		return nil, err
	}
	opts.N, opts.T = shape.N, shape.T
	c := call{protocol: protoApprox, diam: diameterBound, eps: epsilon}
	if _, err := c.validate(opts.N, honestInputs(inputs, opts.Corruptions)); err != nil {
		return nil, err
	}
	var sched asyncnet.Scheduler
	switch opts.Scheduler {
	case "", SchedRandom:
		sched = asyncnet.NewRandomScheduler(opts.Seed)
	case SchedLIFO:
		sched = asyncnet.LIFOScheduler{}
	case SchedDelay:
		victims := firstHonest(opts.N, 2, opts.Corruptions)
		sched = asyncnet.NewDelayScheduler(opts.Seed, victims...)
	default:
		return nil, fmt.Errorf("%w: unknown scheduler %q", ErrOptions, opts.Scheduler)
	}
	outputs := make(map[int]*big.Int, opts.N)
	var mu sync.Mutex
	var netRef *asyncnet.Net
	parties := make([]asyncnet.Party, opts.N)
	for i := 0; i < opts.N; i++ {
		if corr, bad := opts.Corruptions[i]; bad {
			behavior, err := asyncCorruptBehavior(corr, diameterBound, epsilon, opts.Seed+int64(i))
			if err != nil {
				return nil, err
			}
			parties[i] = asyncnet.Party{Corrupt: true, Behavior: behavior}
			continue
		}
		input := inputs[i]
		parties[i] = asyncnet.Party{Behavior: func(net *asyncnet.Net, id asyncnet.PartyID) error {
			mu.Lock()
			netRef = net
			mu.Unlock()
			out, err := asyncaa.Run(net, id, input, diameterBound, epsilon)
			if err != nil {
				return err
			}
			mu.Lock()
			outputs[int(id)] = out
			mu.Unlock()
			return nil
		}}
	}
	if _, err := asyncnet.Run(asyncnet.Config{N: opts.N, T: opts.T, Scheduler: sched}, parties); err != nil {
		return nil, err
	}
	res := &ApproxResult{Outputs: outputs, Spread: spreadOf(outputs)}
	if netRef != nil {
		res.Deliveries = netRef.Deliveries()
	}
	return res, nil
}

// asyncCorruptBehavior maps the shared Corruption kinds onto asynchronous
// strategies.
func asyncCorruptBehavior(c Corruption, diameterBound, epsilon *big.Int, seed int64) (asyncnet.Behavior, error) {
	switch c.Kind {
	case AdvSilent, AdvCrash:
		return func(net *asyncnet.Net, id asyncnet.PartyID) error {
			for {
				if _, err := net.Recv(id); err != nil {
					return err
				}
			}
		}, nil
	case AdvGarbage, AdvSpam:
		return func(net *asyncnet.Net, id asyncnet.PartyID) error {
			rng := rand.New(rand.NewSource(seed))
			for k := 0; k < 64; k++ {
				buf := make([]byte, rng.Intn(48))
				rng.Read(buf)
				net.Broadcast(id, buf)
			}
			for {
				if _, err := net.Recv(id); err != nil {
					return err
				}
			}
		}, nil
	case AdvGhost:
		if c.Input == nil {
			return nil, fmt.Errorf("%w: AdvGhost requires Corruption.Input", ErrOptions)
		}
		input := new(big.Int).Abs(c.Input)
		return func(net *asyncnet.Net, id asyncnet.PartyID) error {
			_, err := asyncaa.Run(net, id, input, diameterBound, epsilon)
			return err
		}, nil
	default:
		return nil, fmt.Errorf("%w: adversary %q is not meaningful asynchronously", ErrOptions, c.Kind)
	}
}

// firstHonest returns up to k honest party ids, lowest first.
func firstHonest(n, k int, corrupt map[int]Corruption) []asyncnet.PartyID {
	var out []asyncnet.PartyID
	for i := 0; i < n && len(out) < k; i++ {
		if _, bad := corrupt[i]; !bad {
			out = append(out, asyncnet.PartyID(i))
		}
	}
	return out
}

// spreadOf computes the largest pairwise difference among outputs.
func spreadOf(outputs map[int]*big.Int) *big.Int {
	var lo, hi *big.Int
	for _, v := range outputs {
		if lo == nil || v.Cmp(lo) < 0 {
			lo = v
		}
		if hi == nil || v.Cmp(hi) > 0 {
			hi = v
		}
	}
	if lo == nil {
		return big.NewInt(0)
	}
	return new(big.Int).Sub(hi, lo)
}

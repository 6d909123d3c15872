package convexagreement

import (
	"fmt"
	"math/big"

	"convexagreement/internal/sessmux"
	"convexagreement/internal/transport"
)

// VectorResult reports a vector agreement run.
type VectorResult struct {
	// Output is the agreed vector (identical across honest parties).
	Output []*big.Int
	// Outputs lists each honest party's output vector by party index.
	Outputs map[int][]*big.Int
	// Rounds, HonestBits, CorruptBits and Messages are the usual cost
	// measures. Thanks to parallel composition the round count is that of
	// a single scalar instance, not d of them.
	Rounds      int
	HonestBits  int64
	CorruptBits int64
	Messages    int64
}

// AgreeVector runs Convex Agreement on d-dimensional integer vectors by
// composing d scalar Π_ℤ instances — one per coordinate — in parallel over
// shared physical rounds (sessmux.Parallel).
//
// Validity is coordinate-wise ("box validity"): every coordinate of the
// agreed vector lies within the honest inputs' range in that coordinate.
// This is the natural product construction and is weaker than the
// convex-hull validity of Vaidya–Garg multidimensional CA [50] (the output
// lands in the honest bounding box, not necessarily in the hull itself);
// see DESIGN.md for the discussion. Communication is d times the scalar
// cost while the round count stays that of one scalar instance (E14).
//
// Every honest party's input must have the same dimension d ≥ 1. Corrupted
// parties use Corruption.InputVector for AdvGhost (falling back to
// Corruption.Input replicated across coordinates).
func AgreeVector(inputs [][]*big.Int, opts Options) (*VectorResult, error) {
	dim := 0
	validate := func(n int, honest [][]*big.Int) (func(transport.Net, []*big.Int) ([]*big.Int, error), error) {
		var coords []*big.Int
		for _, vec := range honest {
			if dim == 0 {
				dim = len(vec)
			}
			if len(vec) == 0 || len(vec) != dim {
				return nil, fmt.Errorf("%w: input vectors of dimension %d and %d", ErrOptions, dim, len(vec))
			}
			coords = append(coords, vec...)
		}
		scalar, err := agreeCall(ProtoOptimal, 0).validate(n, coords)
		if err != nil {
			return nil, err
		}
		return func(net transport.Net, vec []*big.Int) ([]*big.Int, error) {
			return runVector(net, vec, scalar)
		}, nil
	}
	// Ghosts run the honest composition on a poisoned vector.
	ghost := func(c Corruption) ([]*big.Int, error) {
		vec := c.InputVector
		if vec == nil {
			if c.Input == nil {
				return nil, fmt.Errorf("%w: AdvGhost requires Input or InputVector", ErrOptions)
			}
			vec = make([]*big.Int, dim)
			for i := range vec {
				vec[i] = c.Input
			}
		}
		if len(vec) != dim {
			return nil, fmt.Errorf("%w: ghost vector has dimension %d, want %d", ErrOptions, len(vec), dim)
		}
		return vec, nil
	}
	run, err := simulate(opts, inputs, validate, ghost)
	if err != nil {
		return nil, err
	}
	res := &VectorResult{
		Outputs:     run.Outputs,
		Rounds:      run.Report.Rounds,
		HonestBits:  run.Report.HonestBits,
		CorruptBits: run.Report.CorruptBits,
		Messages:    run.Report.Messages,
	}
	for _, out := range res.Outputs {
		if res.Output == nil {
			res.Output = out
			continue
		}
		for c := range out {
			if res.Output[c].Cmp(out[c]) != 0 {
				return res, ErrDisagreement
			}
		}
	}
	return res, nil
}

// runVector executes the d-coordinate composition for one party: one
// instance of the scalar protocol per coordinate, in shared rounds, each
// on a work set of its own.
func runVector(net transport.Net, vec []*big.Int, scalar partyRunner) ([]*big.Int, error) {
	out := make([]*big.Int, len(vec))
	fns := make([]func(net transport.Net) error, len(vec))
	for c := range vec {
		fns[c] = func(coordNet transport.Net) (err error) {
			out[c], err = scalar(coordNet, vec[c])
			return err
		}
	}
	if err := sessmux.Parallel(net, fns); err != nil {
		return nil, err
	}
	return out, nil
}

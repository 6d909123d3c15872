package convexagreement

import (
	"fmt"
	"math/big"
	"slices"

	"convexagreement/internal/aa"
	"convexagreement/internal/adversary"
	"convexagreement/internal/baselines"
	"convexagreement/internal/core"
	"convexagreement/internal/highcostca"
	"convexagreement/internal/sim"
	"convexagreement/internal/transport"
)

// Agree runs one Convex Agreement instance over the built-in synchronous
// network simulator. inputs[i] is party i's input; entries for corrupted
// parties are ignored. The returned Result carries the common output and
// the exact communication and round costs of the run.
//
// Termination, Agreement, and Convex Validity hold as long as
// len(opts.Corruptions) ≤ opts.T < n/3 — whatever strategies the corrupted
// parties run.
func Agree(inputs []*big.Int, opts Options) (*Result, error) {
	run, err := simulate(opts, inputs, agreeCall(opts.Protocol, opts.Width).validate, scalarGhost)
	if err != nil {
		return nil, err
	}
	rep := run.Report
	res := &Result{
		Outputs:       run.Outputs,
		Rounds:        rep.Rounds,
		HonestBits:    rep.HonestBits,
		CorruptBits:   rep.CorruptBits,
		Messages:      rep.Messages,
		BitsByLabel:   rep.BitsByTag,
		RoundsByLabel: rep.RoundsByTag,
		Timeline:      rep.Timeline,
		BitsByParty:   rep.BitsByParty,
	}
	for _, out := range res.Outputs {
		if res.Output == nil {
			res.Output = out
		} else if res.Output.Cmp(out) != 0 {
			return res, ErrDisagreement
		}
	}
	return res, nil
}

// simulate is the one assembly of a simulated run, shared by Agree,
// ApproxAgree and AgreeVector. It defaults and checks opts, has validate
// check the honest parties' inputs and return the protocol as a function of
// one party's input, and runs it on the simulator: party i runs
// run(net, inputs[i]) and its output is collected, unless
// opts.Corruptions names it — then it runs the named network-level
// strategy, or, for AdvGhost, the honest protocol on ghost(corruption) and
// then idles. On an error the result is not to be used.
func simulate[I, O any](
	opts Options, inputs []I,
	validate func(n int, honest []I) (func(transport.Net, I) (O, error), error),
	ghost func(Corruption) (I, error),
) (*sim.Result[O], error) {
	opts, err := normalize(len(inputs), opts)
	if err != nil {
		return nil, err
	}
	run, err := validate(opts.N, honestInputs(inputs, opts.Corruptions))
	if err != nil {
		return nil, err
	}
	corrupt := make(map[int]sim.Behavior, len(opts.Corruptions))
	for i, c := range opts.Corruptions {
		if c.Kind == AdvGhost {
			poisoned, err := ghost(c)
			if err != nil {
				return nil, err
			}
			corrupt[i] = sim.Ghost(func(env *sim.Env) error { _, err := run(env, poisoned); return err })
		} else if corrupt[i], err = networkAdversary(c.Kind, opts.Seed+int64(i)); err != nil {
			return nil, err
		}
	}
	cfg := sim.Config{N: opts.N, T: opts.T, MaxRounds: opts.MaxRounds, Timeline: opts.Timeline}
	return sim.Collect(cfg, corrupt, func(env *sim.Env) (O, error) { return run(env, inputs[env.ID()]) })
}

// honestInputs drops the entries of corrupted parties (byzantine parties
// have no input in the model, so theirs are never looked at).
func honestInputs[I any](inputs []I, corrupt map[int]Corruption) []I {
	var honest []I
	for i, in := range inputs {
		if _, bad := corrupt[i]; !bad {
			honest = append(honest, in)
		}
	}
	return honest
}

// normalize defaults and validates the shape of a simulated run of n
// inputs: N, T and the corruption set. What the parties run and on which
// inputs is the call's business (call.validate).
func normalize(n int, opts Options) (Options, error) {
	if opts.N == 0 {
		opts.N = n
	}
	if opts.N <= 0 || n != opts.N {
		return opts, fmt.Errorf("%w: %d inputs for n=%d", ErrOptions, n, opts.N)
	}
	if opts.T == 0 {
		opts.T = (opts.N - 1) / 3
	}
	if opts.T < 0 || 3*opts.T >= opts.N {
		return opts, fmt.Errorf("%w: t=%d violates t < n/3 for n=%d", ErrOptions, opts.T, opts.N)
	}
	if len(opts.Corruptions) > opts.T {
		return opts, fmt.Errorf("%w: %d corruptions exceed budget t=%d", ErrOptions, len(opts.Corruptions), opts.T)
	}
	for idx := range opts.Corruptions {
		if idx < 0 || idx >= opts.N {
			return opts, fmt.Errorf("%w: corruption index %d out of range", ErrOptions, idx)
		}
	}
	return opts, nil
}

// partyRunner executes the selected protocol for one party, on a work set
// sharedSets lends for the run.
type partyRunner = func(net transport.Net, input *big.Int) (*big.Int, error)

// protoApprox is Approximate Agreement as a call: what ApproxAgree,
// RunPartyApprox and Session.ApproxAgree run. It is not a Protocol a caller
// can select.
const protoApprox Protocol = "approx"

// call is what the parties of one agreement instance fix beforehand:
// everything but their inputs.
type call struct {
	protocol  Protocol
	width     int      // the fixed-length protocols
	diam, eps *big.Int // protoApprox
}

// agreeCall is the call of Agree, RunParty and Session.Agree.
func agreeCall(protocol Protocol, width int) call {
	if protocol == "" {
		protocol = ProtoOptimal
	}
	return call{protocol: protocol, width: width}
}

// validate is the one place a call is checked. Every way into the library
// — Agree, ApproxAgree and AgreeVector for the honest parties of a
// simulated run, RunParty, RunPartyApprox, Session.Agree and
// Session.ApproxAgree for one party of an n-party transport — passes
// through it before anything reaches the wire, the write-ahead log or
// Session.Err(): whatever a protocol would refuse on entry is refused here,
// as ErrOptions. It returns the protocol as a function of one party's
// input, run on a set sharedSets lends: what each party runs.
func (c call) validate(n int, inputs []*big.Int) (partyRunner, error) {
	switch {
	case n <= 0:
		return nil, fmt.Errorf("%w: n=%d parties", ErrOptions, n)
	case c.protocol != protoApprox && !slices.Contains(Protocols(), c.protocol):
		return nil, fmt.Errorf("%w: unknown protocol %q", ErrOptions, c.protocol)
	case c.protocol.NeedsWidth() && c.width <= 0:
		return nil, fmt.Errorf("%w: protocol %q requires Width", ErrOptions, c.protocol)
	case c.protocol == ProtoFixedLengthBlocks && c.width%(n*n) != 0:
		return nil, fmt.Errorf("%w: protocol %q requires Width to be a multiple of n² = %d, got %d", ErrOptions, c.protocol, n*n, c.width)
	case c.protocol == protoApprox && (c.diam == nil || c.diam.Sign() < 0 || c.eps == nil || c.eps.Sign() <= 0):
		return nil, fmt.Errorf("%w: approximate agreement needs diameterBound ≥ 0 and epsilon ≥ 1, got %v and %v", ErrOptions, c.diam, c.eps)
	}
	for _, v := range inputs {
		switch {
		case v == nil:
			return nil, fmt.Errorf("%w: nil input", ErrOptions)
		case v.Sign() < 0 && !c.protocol.AcceptsNegative():
			return nil, fmt.Errorf("%w: protocol %q takes inputs in ℕ, got %v", ErrOptions, c.protocol, v)
		case c.protocol.NeedsWidth() && v.BitLen() > c.width:
			return nil, fmt.Errorf("%w: input %v does not fit in Width = %d bits", ErrOptions, v, c.width)
		}
	}
	return func(net transport.Net, v *big.Int) (*big.Int, error) {
		b := sharedSets.lend()
		defer sharedSets.giveBack(b)
		return c.run(net, v, b)
	}, nil
}

// run is the one place a Protocol is mapped to code: one party's side of a
// validated call. The prefix-search protocols keep a long value in b, the
// party run's buffers (nil: a fresh set).
func (c call) run(net transport.Net, v *big.Int, b *core.Buffers) (*big.Int, error) {
	switch c.protocol {
	case ProtoOptimal:
		return core.PiZ(net, "ca", v, b)
	case ProtoOptimalNat:
		return core.PiN(net, "ca", v, b)
	case ProtoFixedLength:
		return core.FixedLengthCA(net, "ca", c.width, v, b)
	case ProtoFixedLengthBlocks:
		return core.FixedLengthCABlocks(net, "ca", c.width, net.N()*net.N(), v, b)
	case ProtoHighCost:
		out, err := highcostca.Run(net, "ca", v.Bytes(), nil)
		if err != nil {
			return nil, err
		}
		return new(big.Int).SetBytes(out), nil
	case ProtoBroadcast:
		return baselines.BroadcastCA(net, "ca", v)
	case ProtoBroadcastParallel:
		return baselines.BroadcastCAParallel(net, "ca", v)
	case protoApprox:
		return aa.Run(net, "aa", v, c.diam, c.eps)
	}
	return nil, fmt.Errorf("%w: unknown protocol %q", ErrOptions, c.protocol) // validate admits no other
}

// scalarGhost is AdvGhost's poisoned input in a scalar run.
func scalarGhost(c Corruption) (*big.Int, error) {
	if c.Input == nil {
		return nil, fmt.Errorf("%w: AdvGhost requires Corruption.Input", ErrOptions)
	}
	return c.Input, nil
}

// networkAdversary instantiates a byzantine strategy that looks only at
// packets (every kind but AdvGhost, which simulate builds from the honest
// protocol).
func networkAdversary(kind AdversaryKind, seed int64) (sim.Behavior, error) {
	switch kind {
	case AdvSilent:
		return adversary.Silent(), nil
	case AdvCrash:
		return adversary.Crash(3), nil
	case AdvGarbage:
		return adversary.Garbage(seed, 128), nil
	case AdvEquivocate:
		return adversary.Equivocate(seed), nil
	case AdvMirror:
		return adversary.Mirror(seed%2 == 0), nil
	case AdvSpam:
		return adversary.Spam(seed, 3), nil
	case AdvReplay:
		return adversary.Replay(seed), nil
	case AdvLateJoin:
		return adversary.LateJoin(3), nil
	default:
		return nil, fmt.Errorf("%w: unknown adversary kind %q", ErrOptions, kind)
	}
}

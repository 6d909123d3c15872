package core

import (
	"bytes"
	"fmt"
	"math/big"
	"math/rand"
	"reflect"
	"testing"

	"convexagreement/internal/adversary"
	"convexagreement/internal/faultnet"
	"convexagreement/internal/sim"
	"convexagreement/internal/testutil"
	"convexagreement/internal/transport"
)

// heldSends holds its caller to the send side of transport.Net's lifetime
// rule: a payload sent in round r must read the same when the caller enters
// round r+1, since an in-process net delivers it by reference and the
// receivers may read it until they enter round r+1 themselves. There a
// payload rewritten early is a race that may or may not show; here it is
// an error, every time.
type heldSends struct {
	transport.Net
	round int
	sent  []transport.Packet // the last round's packets, payloads as sent
	kept  [][]byte           // and copies of those payloads
}

func (h *heldSends) Exchange(out []transport.Packet) ([]transport.Message, error) {
	for i, p := range h.sent {
		if !bytes.Equal(p.Payload, h.kept[i]) {
			return nil, fmt.Errorf("party %d: the %s payload of round %d was rewritten before round %d", h.ID(), p.Tag, h.round-1, h.round)
		}
	}
	h.sent, h.kept = append(h.sent[:0], out...), h.kept[:0]
	for _, p := range out {
		h.kept = append(h.kept, bytes.Clone(p.Payload))
	}
	h.round++
	return h.Net.Exchange(out)
}

// pins lists where a set holds a view of memory it does not own once Reset
// has run: a byte slice left in an element of a slice — a value in a
// tally, a share handed to the codec, a received interval, a slice in a
// container of byte slices — up to the capacity of each: what Reset must
// clear so that no finished inbox stays pinned. Byte buffers and arrays
// (the send buffers) are the set's own.
func pins(v reflect.Value, path string) []string {
	var found []string
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			found = append(found, pins(v.Field(i), path+"."+v.Type().Field(i).Name)...)
		}
	case reflect.Slice:
		full := v.Slice(0, v.Cap())
		switch elem := v.Type().Elem(); {
		case elem.Kind() == reflect.Struct:
			for i := range full.Len() {
				for f := range elem.NumField() {
					if field := full.Index(i).Field(f); field.Kind() == reflect.Slice && !field.IsNil() && field.Type().Elem().Kind() == reflect.Uint8 {
						found = append(found, fmt.Sprintf("%s[%d].%s", path, i, elem.Field(f).Name))
					}
				}
			}
		case elem.Kind() == reflect.Slice && elem.Elem().Kind() == reflect.Uint8:
			for i := range full.Len() {
				if !full.Index(i).IsNil() {
					found = append(found, fmt.Sprintf("%s[%d]", path, i))
				}
			}
		case elem.Kind() == reflect.Slice:
			for i := range v.Len() {
				found = append(found, pins(v.Index(i), fmt.Sprintf("%s[%d]", path, i))...)
			}
		}
	}
	return found
}

// workSetRun is what one arm of TestWorkSetMatchesFresh observed: every
// honest output of every agreement, every honest party's digest of all it
// was delivered, and the simulator's cost report with its round timeline.
type workSetRun struct {
	outputs map[sim.PartyID][]string
	digests map[sim.PartyID]uint64
	report  string
}

// TestWorkSetMatchesFresh runs four back-to-back Π_ℤ agreements at every
// honest party, once on one reused Buffers — Reset after each agreement,
// then held to pinning nothing, then Scribbled, as a Session keeps it — and
// once on a fresh set per agreement, at n ∈ {4, 7, 16} under all nine
// catalogue adversaries. The outputs, every party's transcript and the
// simulator's cost report must be identical: whatever the work set carries
// from one agreement or one instance into the next must change nothing.
// Both arms run behind heldSends, so a send buffer rewritten a round early
// fails the run instead of racing. The agreements are on 64-bit values
// sharing their top bits (the benchmark's shape), on small values of mixed
// sign, on ~600-bit values (long lanes, committed and dispersed) and on
// 64-bit values again, after the set has held long ones.
func TestWorkSetMatchesFresh(t *testing.T) {
	for _, n := range []int{4, 7, 16} {
		rng := rand.New(rand.NewSource(int64(n)))
		top := rng.Int63n(1<<15) << 48
		inputs := make([][]*big.Int, 4)
		for a := range inputs {
			for range n {
				var v *big.Int
				switch a {
				case 1:
					v = big.NewInt(rng.Int63n(2001) - 1000)
				case 2:
					v = new(big.Int).Lsh(big.NewInt(top), 550)
					v.Or(v, new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 560)))
				default:
					v = big.NewInt(top | rng.Int63n(1<<48))
				}
				inputs[a] = append(inputs[a], v)
			}
		}
		for _, strat := range adversary.Catalog() {
			t.Run(fmt.Sprintf("n%d/%s", n, strat.Name), func(t *testing.T) {
				reused, fresh := runWorkSet(t, n, strat, inputs, true), runWorkSet(t, n, strat, inputs, false)
				for id, outs := range fresh.outputs {
					if got := reused.outputs[id]; fmt.Sprint(got) != fmt.Sprint(outs) {
						t.Errorf("party %d: outputs %v on one set, %v on fresh sets", id, got, outs)
					}
					if got, want := reused.digests[id], fresh.digests[id]; got != want {
						t.Errorf("party %d: transcript %#x on one set, %#x on fresh sets", id, got, want)
					}
				}
				if reused.report != fresh.report {
					t.Errorf("cost reports differ:\none set:    %.300s\nfresh sets: %.300s", reused.report, fresh.report)
				}
			})
		}
	}
}

// runWorkSet is one arm of TestWorkSetMatchesFresh.
func runWorkSet(t *testing.T, n int, strat adversary.Strategy, inputs [][]*big.Int, reuse bool) workSetRun {
	t.Helper()
	tc := (n - 1) / 3
	corrupt := map[int]sim.Behavior{}
	for i := range tc {
		corrupt[3*i] = strat.Build(int64(7 + i))
	}
	run := workSetRun{outputs: map[sim.PartyID][]string{}, digests: map[sim.PartyID]uint64{}}
	type party struct {
		outs   []string
		digest uint64
	}
	res, err := testutil.Run(sim.Config{N: n, T: tc, Timeline: true}, corrupt, func(env *sim.Env) (party, error) {
		net := faultnet.Wrap(&heldSends{Net: env}, nil) // empty plan: a transcript digest
		var p party
		var set Buffers
		for a := range inputs {
			b := &set
			if !reuse {
				b = nil
			}
			out, err := PiZ(net, "ca", inputs[a][env.ID()], b)
			if err != nil {
				return p, fmt.Errorf("agreement %d: %w", a, err)
			}
			p.outs = append(p.outs, out.String())
			if reuse {
				set.Reset()
				if left := pins(reflect.ValueOf(&set).Elem(), "Buffers"); len(left) > 0 {
					return p, fmt.Errorf("agreement %d: after Reset the set still pins %v", a, left)
				}
				set.Scribble()
			}
		}
		p.digest = net.Transcript()
		return p, nil
	})
	if err != nil {
		t.Fatalf("reuse=%v: %v", reuse, err)
	}
	for id, p := range res.Outputs {
		run.outputs[id], run.digests[id] = p.outs, p.digest
	}
	rep := *res.Report
	rep.PartyErrors = nil // the corrupt parties' exits
	run.report = fmt.Sprintf("%+v", rep)
	return run
}

package core

import (
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"convexagreement/internal/adversary"
	"convexagreement/internal/baplus"
	"convexagreement/internal/bitstr"
	"convexagreement/internal/sim"
	"convexagreement/internal/testutil"
	"convexagreement/internal/transport"
)

// findPrefixRef is the search as written before findPrefix learned to
// compare only the new segment: it carries the agreed prefix, re-slices the
// first mid blocks of v every iteration and compares them whole. It is the
// oracle for the incremental decision; observe sees both comparisons at
// every iteration that agreed on a segment.
func findPrefixRef(env transport.Net, tag string, v bitstr.String, blockBits, numBlocks int, observe func(full, incremental int)) (PrefixResult, error) {
	width := v.Len()
	left, right := 1, numBlocks+1
	vBot := v
	prefix := bitstr.String{}
	for left < right {
		mid := (left + right) / 2
		segment, err := v.BlockRange(left-1, mid, blockBits)
		if err != nil {
			return PrefixResult{}, err
		}
		agreed, ok, err := baplus.Long(env, tag+"/lba", segment.Marshal())
		if err != nil {
			return PrefixResult{}, err
		}
		if !ok {
			vBot = v
			right = mid
			continue
		}
		agreedSeg, err := bitstr.Unmarshal(agreed)
		if err != nil || agreedSeg.Len() != (mid-left+1)*blockBits {
			return PrefixResult{}, fmt.Errorf("%w: agreed segment malformed", ErrProtocol)
		}
		prefix = prefix.Concat(agreedSeg)
		myPrefix, err := v.Prefix(mid * blockBits)
		if err != nil {
			return PrefixResult{}, err
		}
		full := myPrefix.Compare(prefix)
		observe(full, segment.Compare(agreedSeg))
		switch full {
		case -1:
			if v, err = prefix.FillTo(width, 0); err != nil {
				return PrefixResult{}, err
			}
		case 1:
			if v, err = prefix.FillTo(width, 1); err != nil {
				return PrefixResult{}, err
			}
		}
		left = mid + 1
	}
	return PrefixResult{Prefix: prefix, V: v, VBot: vBot}, nil
}

// TestFindPrefixIncrementalMatchesFullCompare runs the search under every
// catalogue adversary at bit and at block granularity, through the oracle
// and through findPrefix at arity 2 and at arity on the same seeds. Inside
// the oracle the segment-only comparison must equal the full-prefix one at
// every iteration. At arity 2 the engine asks exactly the oracle's
// midpoints, so every honest party's (Prefix, V, VBot) and the run's rounds
// and honest bits must be the oracle's; at arity the search takes other
// steps and may end elsewhere, so it is held to Lemma 1's postconditions
// and hull membership instead (checkPrefixPostconditions). The honest
// inputs are clustered so that n−2t parties carry an agreed segment the
// others must re-anchor onto, from below and from above.
func TestFindPrefixIncrementalMatchesFullCompare(t *testing.T) {
	const n, tc = 7, 2
	grains := []struct {
		name                string
		blockBits, numBlock int
	}{
		{"bit", 1, 63},
		{"block", 3, n * n}, // 3-bit blocks: every cut but one in eight is off a byte boundary
	}
	var mu sync.Mutex
	decisions := map[int]int{} // comparison outcome → iterations that saw it, over the whole table
	for _, g := range grains {
		width := g.blockBits * g.numBlock
		for k, strat := range adversary.Catalog() {
			t.Run(g.name+"/"+strat.Name, func(t *testing.T) {
				seed := int64(1000*g.blockBits + k)
				rng := rand.New(rand.NewSource(seed))
				low := width / 2
				heads := [3]int64{rng.Int63n(1<<20) + 2, 0, 0}
				heads[1], heads[2] = heads[0]-1-rng.Int63n(2), heads[0]+1+rng.Int63n(5)
				inputs := make([]bitstr.String, n)
				for i := range inputs {
					head := heads[0]
					if i == 4 || i == 5 {
						head = heads[i-3] // party 4 sits below the cluster, 5 above
					}
					v := new(big.Int).Lsh(big.NewInt(head), uint(low))
					v.Or(v, new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(low))))
					inputs[i] = bitstr.MustFromBig(v, width)
				}
				corrupt := func() map[int]sim.Behavior {
					return map[int]sim.Behavior{2: strat.Build(seed), 6: strat.Build(seed + 1)}
				}
				got, err := testutil.Run(sim.Config{N: n, T: tc}, corrupt(),
					func(env *sim.Env) (PrefixResult, error) {
						return findPrefix(env, "fp", inputs[env.ID()], g.blockBits, g.numBlock, 2)
					})
				if err != nil {
					t.Fatal(err)
				}
				want, err := testutil.Run(sim.Config{N: n, T: tc}, corrupt(),
					func(env *sim.Env) (PrefixResult, error) {
						return findPrefixRef(env, "fp", inputs[env.ID()], g.blockBits, g.numBlock, func(full, incremental int) {
							mu.Lock()
							defer mu.Unlock()
							decisions[full]++
							if full != incremental {
								t.Errorf("party %d: full-prefix compare %d, segment compare %d", env.ID(), full, incremental)
							}
						})
					})
				if err != nil {
					t.Fatal(err)
				}
				for id, w := range want.Outputs {
					g := got.Outputs[id]
					if !g.Prefix.Equal(w.Prefix) || !g.V.Equal(w.V) || !g.VBot.Equal(w.VBot) {
						t.Errorf("party %d: got (%v, %v, %v)\n want (%v, %v, %v)", id, g.Prefix, g.V, g.VBot, w.Prefix, w.V, w.VBot)
					}
					if !g.V.HasPrefix(g.Prefix) {
						t.Errorf("party %d: V does not extend Prefix", id)
					}
				}
				if got.Report.Rounds != want.Report.Rounds || got.Report.HonestBits != want.Report.HonestBits {
					t.Errorf("rounds/bits %d/%d, oracle %d/%d", got.Report.Rounds, got.Report.HonestBits, want.Report.Rounds, want.Report.HonestBits)
				}
				values := make([]*big.Int, n)
				for i, v := range inputs {
					values[i] = v.Big()
				}
				checkPrefixPostconditions(t, fmt.Sprintf("arity %d", arity), tc, g.blockBits, g.numBlock, arity, values, corrupt())
			})
		}
	}
	for _, c := range []int{-1, 0, 1} {
		if decisions[c] == 0 {
			t.Errorf("no iteration of the table compared %d: the inputs no longer exercise that branch", c)
		}
	}
	t.Logf("iterations by comparison outcome: %v", decisions)
}

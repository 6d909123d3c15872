package core

import (
	"bytes"
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
		segment, err := v.Slice((left-1)*blockBits, mid*blockBits)
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
	return PrefixResult{V: v, VBot: vBot, PrefixLen: prefix.Len()}, nil
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
				inputs := clusteredInputs(rand.New(rand.NewSource(seed)), n, width)
				corrupt := func() map[int]sim.Behavior {
					return map[int]sim.Behavior{2: strat.Build(seed), 6: strat.Build(seed + 1)}
				}
				got, err := sim.Collect(sim.Config{N: n, T: tc}, corrupt(),
					func(env *sim.Env) (PrefixResult, error) {
						return findPrefixOnCopy(env, "fp", inputs[env.ID()], g.blockBits, g.numBlock, 2)
					})
				if err != nil {
					t.Fatal(err)
				}
				want, err := sim.Collect(sim.Config{N: n, T: tc}, corrupt(),
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
					if g.PrefixLen != w.PrefixLen || !g.V.Equal(w.V) || !g.VBot.Equal(w.VBot) {
						t.Errorf("party %d: got (%v, %v, %v)\n want (%v, %v, %v)", id, g.Prefix(), g.V, g.VBot, w.Prefix(), w.V, w.VBot)
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

// clusteredInputs draws n width-bit inputs for a 7-party table: the top
// halves cluster on one head, except that party 4 sits just below the
// cluster and party 5 just above it, and the low halves are random — so
// n−2t parties carry an agreed segment the others must re-anchor onto.
func clusteredInputs(rng *rand.Rand, n, width int) []bitstr.String {
	low := width / 2
	heads := [3]int64{rng.Int63n(1<<20) + 2, 0, 0}
	heads[1], heads[2] = heads[0]-1-rng.Int63n(2), heads[0]+1+rng.Int63n(5)
	inputs := make([]bitstr.String, n)
	for i := range inputs {
		head := heads[0]
		if i == 4 || i == 5 {
			head = heads[i-3]
		}
		v := new(big.Int).Lsh(big.NewInt(head), uint(low))
		v.Or(v, new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(low))))
		inputs[i] = testutil.MustFromBig(v, width)
	}
	return inputs
}

// findPrefixFresh is the k-ary search written over values, every step in
// fresh storage: v re-anchored by building prefix‖agreedSeg‖fill anew, v_⊥
// the pre-iteration string itself, the prefix cut off at the end. It is the
// oracle of the in-place engine; observe sees, at every iteration that
// agreed on a segment, whether v was re-anchored and whether v_⊥ was saved
// in that iteration (and so from the v about to be rewritten).
func findPrefixFresh(env transport.Net, tag string, v bitstr.String, blockBits, numBlocks, k int, observe func(reanchored, saved bool)) (PrefixResult, error) {
	width := v.Len()
	left, right := 1, numBlocks+1
	vBot := v
	var splits, ends []int
	segment := func(m int) []byte {
		seg, _ := v.AppendMarshalRange(nil, (left-1)*blockBits, m*blockBits)
		return seg
	}
	for left < right {
		splits, ends = splits[:0], ends[:0]
		for j := 1; j < k; j++ {
			if m := left - 1 + (j*(right-left+1)+k-1)/k; m < right && (len(splits) == 0 || m > splits[len(splits)-1]) {
				splits = append(splits, m)
				ends = append(ends, (m-left+1)*blockBits)
			}
		}
		lane, agreed, err := baplus.LongLanes(env, tag+"/lba", segment(splits[len(splits)-1]), ends, nil)
		if err != nil {
			return PrefixResult{}, err
		}
		pre, saved := v, lane+1 < len(splits)
		if lane >= 0 {
			m := splits[lane]
			agreedSeg, err := bitstr.Unmarshal(agreed)
			if err != nil || agreedSeg.Len() != (m-left+1)*blockBits {
				return PrefixResult{}, fmt.Errorf("%w: agreed segment malformed", ErrProtocol)
			}
			c := bytes.Compare(segment(m), agreed)
			if c != 0 {
				fill := byte(0)
				if c > 0 {
					fill = 1
				}
				prefix, err := v.Slice(0, (left-1)*blockBits)
				if err != nil {
					return PrefixResult{}, err
				}
				if v, err = prefix.Concat(agreedSeg).FillTo(width, fill); err != nil {
					return PrefixResult{}, err
				}
			}
			observe(c != 0, saved)
			left = m + 1
		}
		if saved {
			vBot, right = pre, splits[lane+1]
		}
	}
	return PrefixResult{V: v, VBot: vBot, PrefixLen: (left - 1) * blockBits}, nil
}

// TestFindPrefixInPlaceMatchesFresh runs the in-place search against
// findPrefixFresh under every catalogue adversary, at arity 3 and at arity,
// at bit and at block granularity: every honest party's (V, VBot,
// PrefixLen) and the run's rounds and honest bits must be the oracle's. The
// table must reach the schedules where in-place rewriting can go wrong —
// v re-anchored in the very iteration that saved v_⊥ from it, and in a
// later one — so that a v_⊥ aliasing v, or saved after the rewrite, fails
// here.
func TestFindPrefixInPlaceMatchesFresh(t *testing.T) {
	const n, tc = 7, 2
	var mu sync.Mutex
	var sameIteration, reanchored int
	for _, g := range []struct {
		name                string
		blockBits, numBlock int
	}{{"bit", 1, 63}, {"block", 3, n * n}} {
		width := g.blockBits * g.numBlock
		for _, k := range []int{3, arity} {
			for a, strat := range adversary.Catalog() {
				t.Run(fmt.Sprintf("%s/k%d/%s", g.name, k, strat.Name), func(t *testing.T) {
					seed := int64(100*k + 1000*g.blockBits + a)
					inputs := clusteredInputs(rand.New(rand.NewSource(seed)), n, width)
					corrupt := func() map[int]sim.Behavior {
						return map[int]sim.Behavior{2: strat.Build(seed), 6: strat.Build(seed + 1)}
					}
					got, err := sim.Collect(sim.Config{N: n, T: tc}, corrupt(),
						func(env *sim.Env) (PrefixResult, error) {
							return findPrefixOnCopy(env, "fp", inputs[env.ID()], g.blockBits, g.numBlock, k)
						})
					if err != nil {
						t.Fatal(err)
					}
					want, err := sim.Collect(sim.Config{N: n, T: tc}, corrupt(),
						func(env *sim.Env) (PrefixResult, error) {
							return findPrefixFresh(env, "fp", inputs[env.ID()], g.blockBits, g.numBlock, k, func(re, saved bool) {
								mu.Lock()
								defer mu.Unlock()
								if re {
									reanchored++
									if saved {
										sameIteration++
									}
								}
							})
						})
					if err != nil {
						t.Fatal(err)
					}
					for id, w := range want.Outputs {
						g := got.Outputs[id]
						if g.PrefixLen != w.PrefixLen || !g.V.Equal(w.V) || !g.VBot.Equal(w.VBot) {
							t.Errorf("party %d: got (%v, %v, %v)\n want (%v, %v, %v)", id, g.Prefix(), g.V, g.VBot, w.Prefix(), w.V, w.VBot)
						}
					}
					if got.Report.Rounds != want.Report.Rounds || got.Report.HonestBits != want.Report.HonestBits {
						t.Errorf("rounds/bits %d/%d, oracle %d/%d", got.Report.Rounds, got.Report.HonestBits, want.Report.Rounds, want.Report.HonestBits)
					}
				})
			}
		}
	}
	if sameIteration == 0 || reanchored == sameIteration {
		t.Errorf("re-anchorings %d, %d of them in the iteration that saved v_⊥: the table must have both kinds", reanchored, sameIteration)
	}
	t.Logf("re-anchorings %d, %d in the iteration that saved v_⊥", reanchored, sameIteration)
}

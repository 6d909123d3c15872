package core

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"convexagreement/internal/adversary"
	"convexagreement/internal/bitstr"
	"convexagreement/internal/sim"
	"convexagreement/internal/testutil"
	"convexagreement/internal/transport"
)

// checkPrefixPostconditions runs the search engine at arity k over inputs
// (corrupt parties' ignored) and asserts Lemma 1 (bit granularity) or
// Lemma 4 (block granularity) on the honest outputs: one agreed prefix of
// whole units; every v valid and extending it; every vBot valid; and,
// unless the prefix is the whole value, every one-unit extension of the
// prefix avoided by the vBot of at least t+1 honest parties — the
// precondition GETOUTPUT relies on. It returns the prefix length in units.
func checkPrefixPostconditions(t *testing.T, name string, tc, blockBits, numBlocks, k int, inputs []*big.Int, corrupt map[int]sim.Behavior) int {
	t.Helper()
	width := blockBits * numBlocks
	res, err := testutil.Run(sim.Config{N: len(inputs), T: tc}, corrupt,
		func(env *sim.Env) (PrefixResult, error) {
			return findPrefixOnCopy(env, "fp", bitstr.MustFromBig(inputs[env.ID()], width), blockBits, numBlocks, k)
		})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var honest []*big.Int
	for i, v := range inputs {
		if _, bad := corrupt[i]; !bad {
			honest = append(honest, v)
		}
	}
	var prefix *bitstr.String
	for id, r := range res.Outputs {
		if p := r.Prefix(); prefix == nil {
			prefix = &p
		} else if !p.Equal(*prefix) {
			t.Fatalf("%s: party %d prefix %v differs from %v", name, id, p, *prefix)
		}
		if r.PrefixLen%blockBits != 0 {
			t.Fatalf("%s: party %d: v %v does not extend the %d-bit prefix by whole units", name, id, r.V, r.PrefixLen)
		}
		for what, val := range map[string]bitstr.String{"v": r.V, "vBot": r.VBot} {
			if err := testutil.HullCheck(val.Big(), honest); err != nil {
				t.Fatalf("%s: party %d: %s invalid: %v", name, id, what, err)
			}
		}
	}
	if prefix.Len() == width {
		return numBlocks
	}
	for unit := 0; unit < 1<<blockBits; unit++ {
		ext := prefix.Concat(bitstr.MustFromBig(big.NewInt(int64(unit)), blockBits))
		avoid := 0
		for _, r := range res.Outputs {
			if !r.VBot.HasPrefix(ext) {
				avoid++
			}
		}
		if avoid < tc+1 {
			t.Fatalf("%s: only %d honest vBot avoid extension %v, need %d", name, avoid, ext, tc+1)
		}
	}
	return prefix.Len() / blockBits
}

// clustered draws width-bit inputs most of which share their top half (a
// cluster the search can agree on), with one party just below it and one
// just above, so that lanes agree, fail and re-anchor.
func clustered(rng *rand.Rand, n, width int) []*big.Int {
	low := width / 2
	head := rng.Int63n(1<<(width-low-2)) + 2
	inputs := make([]*big.Int, n)
	for i := range inputs {
		h := head
		switch {
		case i == 1:
			h--
		case i == 2:
			h += 1 + rng.Int63n(3)
		case i >= n-n/3 && rng.Intn(2) == 0:
			h = rng.Int63n(1 << (width - low))
		}
		v := new(big.Int).Lsh(big.NewInt(h), uint(low))
		inputs[i] = v.Or(v, new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(low))))
	}
	return inputs
}

// prefixTable runs checkPrefixPostconditions under every catalogue
// adversary at every arity in {2, 3, 4, 8}, on clustered inputs and on
// identical ones, and requires the table to reach both a full prefix and a
// partial one.
func prefixTable(t *testing.T, seed int64, blockBits, numBlocks int) {
	rng := rand.New(rand.NewSource(seed))
	lengths := map[bool]int{} // runs by "the prefix is the whole value"
	for _, strat := range adversary.Catalog() {
		for _, k := range []int{2, 3, 4, 8} {
			for trial := 0; trial < 2; trial++ {
				n := 4 + rng.Intn(6)
				tc := (n - 1) / 3
				corrupt := map[int]sim.Behavior{}
				for len(corrupt) < tc {
					corrupt[rng.Intn(n)] = strat.Build(rng.Int63())
				}
				inputs := clustered(rng, n, blockBits*numBlocks)
				if trial == 1 && k == 4 {
					for i := range inputs {
						inputs[i] = inputs[0]
					}
				}
				name := fmt.Sprintf("%s k=%d n=%d trial %d", strat.Name, k, n, trial)
				got := checkPrefixPostconditions(t, name, tc, blockBits, numBlocks, k, inputs, corrupt)
				lengths[got == numBlocks]++
			}
		}
	}
	if lengths[true] == 0 || lengths[false] == 0 {
		t.Errorf("runs by full prefix %v: the table no longer reaches both outcomes", lengths)
	}
}

// TestFindPrefixPostconditions verifies Lemma 1 directly through the k-ary
// engine at bit granularity: prefix agreement, (i) v extends prefix and is
// valid, and the consequence of (ii) used by GETOUTPUT — for each one-bit
// extension of the prefix, at least t+1 honest parties hold vBot values
// avoiding it (whenever |prefix| < ℓ).
func TestFindPrefixPostconditions(t *testing.T) { prefixTable(t, 31, 1, 24) }

// TestFindPrefixBlocksPostconditions verifies Lemma 4 the same way at block
// granularity (4-bit blocks, all sixteen one-block extensions).
func TestFindPrefixBlocksPostconditions(t *testing.T) { prefixTable(t, 44, 4, 8) }

// findPrefixOnCopy runs findPrefix at arity k on a copy of v in a fresh
// set of Buffers, as FindPrefix does: the search rewrites its value in
// place, and a test's inputs are shared between runs.
func findPrefixOnCopy(env transport.Net, tag string, v bitstr.String, blockBits, numBlocks, k int) (PrefixResult, error) {
	b := new(Buffers)
	return findPrefix(env, tag, v.CopyTo(&b.v), blockBits, numBlocks, k, b)
}

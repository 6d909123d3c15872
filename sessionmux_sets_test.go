package convexagreement_test

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	ca "convexagreement"
	"convexagreement/internal/core"
)

// muxParties is one SessionMux per party of a cluster.
type muxParties struct {
	muxes []*ca.SessionMux
	sid   uint64 // the last session id opened
}

// localMuxes is one SessionMux per party of a fresh n-party local cluster.
func localMuxes(t testing.TB, n int) *muxParties {
	t.Helper()
	cluster, err := ca.NewLocalCluster(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	mp := &muxParties{muxes: make([]*ca.SessionMux, n)}
	for p, tr := range cluster {
		t.Cleanup(func() { tr.Close() })
		mp.muxes[p] = ca.NewSessionMux(tr)
	}
	return mp
}

// waves runs waves of concurrent muxed agreements: wave w opens one
// session per entry of inputs[w] on every party's mux, all on one tick,
// drives each through RunParty and closes it. outs[w][s][p] is party p's
// output of session s of wave w.
func (mp *muxParties) waves(t testing.TB, inputs [][][]*big.Int) [][][]*big.Int {
	t.Helper()
	n := len(mp.muxes)
	outs := make([][][]*big.Int, len(inputs))
	for w, wave := range inputs {
		outs[w] = make([][]*big.Int, len(wave))
		for s := range wave {
			outs[w][s] = make([]*big.Int, n)
		}
		errs := make([]error, n)
		var wg sync.WaitGroup
		for p, sm := range mp.muxes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[p] = muxWaveParty(sm, mp.sid, n, wave, outs[w], p)
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatalf("wave %d: %v", w, err)
		}
		mp.sid += uint64(len(wave))
	}
	return outs
}

// muxWaveParty is party p's side of one wave, its sessions numbered from
// sid+1.
func muxWaveParty(sm *ca.SessionMux, sid uint64, n int, wave [][]*big.Int, outs [][]*big.Int, p int) error {
	mts := make([]*ca.MuxedTransport, len(wave))
	for s := range mts {
		mt, err := sm.Open(sid+uint64(s)+1, n, (n-1)/3)
		if err != nil {
			return err
		}
		mts[s] = mt
	}
	errs := make([]error, len(wave))
	var wg sync.WaitGroup
	for s, mt := range mts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer mt.Close()
			outs[s][p], errs[s] = ca.RunParty(mt, ca.ProtoOptimal, 0, wave[s][p])
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// shortInputs are the benchmark's inputs: n 64-bit values sharing their
// top 48 bits, one sign.
func shortInputs(rng *rand.Rand, n int) []*big.Int {
	top := rng.Int63n(1<<15) << 48
	in := make([]*big.Int, n)
	for p := range in {
		in[p] = big.NewInt(top | rng.Int63n(1<<48))
	}
	return in
}

// mixedInputs are n inputs of about bits bits around one centre, of mixed
// signs when the centre is small.
func mixedInputs(rng *rand.Rand, n, bits int) []*big.Int {
	centre := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(bits)))
	if rng.Intn(2) == 0 {
		centre.Neg(centre)
	}
	in := make([]*big.Int, n)
	for p := range in {
		in[p] = new(big.Int).Add(centre, big.NewInt(rng.Int63n(1<<20)-1<<19))
	}
	return in
}

// TestMuxedRunPartyMatchesPlain: back-to-back waves of concurrent muxed
// agreements on one SessionMux per party, so every wave after the first
// runs on work sets an earlier wave grew (64-bit and 600-bit values, mixed
// signs, in every order), agree on exactly what the same inputs agree on
// through RunParty over plain transports, one agreement at a time.
func TestMuxedRunPartyMatchesPlain(t *testing.T) {
	const n, waves, perWave = 7, 3, 4
	rng := rand.New(rand.NewSource(11))
	inputs := make([][][]*big.Int, waves)
	for w := range inputs {
		for s := 0; s < perWave; s++ {
			switch (w + s) % 3 {
			case 0:
				inputs[w] = append(inputs[w], shortInputs(rng, n))
			case 1:
				inputs[w] = append(inputs[w], mixedInputs(rng, n, 600))
			default:
				inputs[w] = append(inputs[w], mixedInputs(rng, n, 8))
			}
		}
	}
	muxed := localMuxes(t, n).waves(t, inputs)

	cluster, err := ca.NewLocalCluster(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range cluster {
		defer tr.Close()
	}
	for w, wave := range inputs {
		for s, in := range wave {
			plain := make([]*big.Int, n)
			errs := make([]error, n)
			var wg sync.WaitGroup
			for p, tr := range cluster {
				wg.Add(1)
				go func() {
					defer wg.Done()
					plain[p], errs[p] = ca.RunParty(tr, ca.ProtoOptimal, 0, in[p])
				}()
			}
			wg.Wait()
			if err := errors.Join(errs...); err != nil {
				t.Fatalf("wave %d session %d over plain transports: %v", w, s, err)
			}
			for p := range plain {
				if muxed[w][s][p].Cmp(plain[p]) != 0 {
					t.Fatalf("wave %d session %d party %d: muxed output %v, plain %v", w, s, p, muxed[w][s][p], plain[p])
				}
			}
		}
	}
}

// failingTransport fails every round.
type failingTransport struct{}

func (failingTransport) ID() int { return 0 }
func (failingTransport) N() int  { return 4 }
func (failingTransport) T() int  { return 1 }
func (failingTransport) Exchange([]ca.Packet) ([]ca.Message, error) {
	return nil, errors.New("link down")
}

// lendWatch records the package-level lender's lending through its test
// hook, from the moment watchLending installs it: a set lent while it is
// still out, or returned while it is not, is an error; with scribble set
// every returned set is Scribbled.
type lendWatch struct {
	mu         sync.Mutex
	out        map[*core.Buffers]bool
	live, peak int
	heldBefore int
	err        error
}

func watchLending(t *testing.T, scribble bool) *lendWatch {
	// Every earlier run has returned its set: the entry points wait for
	// all their parties.
	w := &lendWatch{out: map[*core.Buffers]bool{}, heldBefore: ca.SharedSetsHeld()}
	ca.SetSharedLendHook(func(b *core.Buffers, lent bool) {
		w.mu.Lock()
		defer w.mu.Unlock()
		switch {
		case lent && w.out[b]:
			w.err = errors.Join(w.err, fmt.Errorf("set %p lent to a second live run", b))
		case !lent && !w.out[b]:
			w.err = errors.Join(w.err, fmt.Errorf("set %p returned while not lent", b))
		case lent:
			w.live++
			w.peak = max(w.peak, w.live)
		default:
			w.live--
			if scribble {
				b.Scribble()
			}
		}
		w.out[b] = lent
	})
	t.Cleanup(func() { ca.SetSharedLendHook(nil) })
	return w
}

// check fails t unless some runs were watched and are over with every set
// returned, and the lender holds no more sets than it held before or had
// runs live at once. It returns how many were live at once.
func (w *lendWatch) check(t *testing.T) (peak int) {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		t.Fatal(w.err)
	}
	if w.live != 0 || w.peak == 0 {
		t.Fatalf("%d sets still lent, %d live at peak", w.live, w.peak)
	}
	if held := ca.SharedSetsHeld(); held != max(w.heldBefore, w.peak) {
		t.Fatalf("lender holds %d sets, held %d before, %d runs live at peak", held, w.heldBefore, w.peak)
	}
	return w.peak
}

// TestMuxedSetsNotShared: over waves of concurrent muxed runs no set is
// lent to two live runs and every run returns its set, whose lender holds
// no more sets than it had runs live at once; a run that fails returns its
// set too.
func TestMuxedSetsNotShared(t *testing.T) {
	const n = 4
	mp := localMuxes(t, n)
	rng := rand.New(rand.NewSource(3))
	inputs := make([][][]*big.Int, 3)
	for w := range inputs {
		for s := 0; s < 2+w; s++ {
			inputs[w] = append(inputs[w], mixedInputs(rng, n, 64*(1+s)))
		}
	}
	w := watchLending(t, false)
	mp.waves(t, inputs)
	// A wave's runs are all live before any of them ends its first round.
	if peak, want := w.check(t), n*len(inputs[len(inputs)-1]); peak != want {
		t.Fatalf("%d runs live at peak, want %d", peak, want)
	}

	sm := ca.NewSessionMux(failingTransport{})
	mt, err := sm.Open(1, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()
	w = watchLending(t, false)
	if _, err := ca.RunParty(mt, ca.ProtoOptimal, 0, big.NewInt(5)); err == nil {
		t.Fatal("a run over a failing transport succeeded")
	}
	if peak := w.check(t); peak != 1 {
		t.Fatalf("failed run: %d sets lent, want 1", peak)
	}
}

// TestMuxedShortValueAllocations is TestShortValueAllocations through a
// SessionMux per party over the in-process cluster: bytes allocated per
// party and 64-bit agreement, one session at a time, after a first
// agreement has grown the work sets. It reads about 1 850 on the sets the
// package-level lender lends: the in-process base takes no ExchangeVec, so
// each mux flattens its ticks through its transport.Flat, whose buffers
// it keeps, and Open hands each session a closed session's inbox array.
// It read about 2 200 when Open made every inbox afresh, 81 000 when every
// tick was flattened into a fresh buffer and packet slice, and 97 700 when
// besides that the mux fanned every broadcast out into n packets; the
// limit is 6 000, so that a per-tick buffer coming back fails it.
func TestMuxedShortValueAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("five 16-party agreements")
	}
	const n, rounds, limit = 16, 5, 6_000
	mp := localMuxes(t, n)
	rng := rand.New(rand.NewSource(5))
	inputs := make([][][]*big.Int, rounds)
	for r := range inputs {
		inputs[r] = [][]*big.Int{shortInputs(rng, n)}
	}
	mp.waves(t, inputs[:1])
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mp.waves(t, inputs[1:])
	runtime.ReadMemStats(&after)
	perParty := float64(after.TotalAlloc-before.TotalAlloc) / float64(n*(rounds-1))
	t.Logf("%.0f bytes per party and agreement", perParty)
	if perParty > limit {
		t.Fatalf("%.0f bytes per party and agreement, want at most %d", perParty, limit)
	}
}

// BenchmarkMuxedPiZ is one 64-bit Π_ℤ agreement per op at n = 16 through a
// SessionMux per party over the in-process cluster, the shape of the
// benchmark's mux_* workloads without sockets: each op opens one session
// on every party, runs RunParty over it on the set the mux lends and
// closes it. ci.sh pins its allocs/op.
func BenchmarkMuxedPiZ(b *testing.B) {
	const n = 16
	mp := localMuxes(b, n)
	in := [][][]*big.Int{{shortInputs(rand.New(rand.NewSource(1)), n)}}
	mp.waves(b, in)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mp.waves(b, in)
	}
}

// sharedCases are simulated agreements on sets the package-level lender
// lends: Π_ℤ at n = 7 under every catalogue strategy on 64-bit, 600-bit
// and mixed-sign inputs, and a vector agreement, each a function of
// nothing but its arguments.
func sharedCases() []func() (any, error) {
	rng := rand.New(rand.NewSource(17))
	var cases []func() (any, error)
	for i, kind := range ca.AdversaryKinds() {
		var in []*big.Int
		switch i % 3 {
		case 0:
			in = shortInputs(rng, 7)
		case 1:
			in = mixedInputs(rng, 7, 600)
		default:
			in = mixedInputs(rng, 7, 8)
		}
		opts := ca.Options{Seed: int64(i), Corruptions: map[int]ca.Corruption{
			1: {Kind: kind, Input: big.NewInt(1 << 40)},
			4: {Kind: kind, Input: big.NewInt(-1 << 40)},
		}}
		cases = append(cases, func() (any, error) {
			res, err := ca.Agree(in, opts)
			if err != nil {
				return nil, err
			}
			return *res, nil
		})
	}
	vec := make([][]*big.Int, 7)
	for p := range vec {
		vec[p] = mixedInputs(rng, 3, 100)
	}
	cases = append(cases, func() (any, error) {
		res, err := ca.AgreeVector(vec, ca.Options{Corruptions: map[int]ca.Corruption{2: {Kind: ca.AdvSpam}}})
		if err != nil {
			return nil, err
		}
		return *res, nil
	})
	return cases
}

// TestSharedSetsScribbled: simulated agreements run on the sets the
// package-level lender lends agree, cost and account exactly as before
// when every returned set is Scribbled — so no run keeps a view of its set
// past its end — and the lender lends no set to two live runs and holds no
// more sets than it had runs live at once (or held before).
func TestSharedSetsScribbled(t *testing.T) {
	cases := sharedCases()
	want := make([]any, len(cases))
	for i, c := range cases {
		res, err := c()
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		want[i] = res
	}
	w := watchLending(t, true)
	for pass := 0; pass < 2; pass++ {
		for i, c := range cases {
			got, err := c()
			if err != nil {
				t.Fatalf("pass %d case %d on scribbled sets: %v", pass, i, err)
			}
			if !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("pass %d case %d: result on scribbled sets differs:\n got %+v\nwant %+v", pass, i, got, want[i])
			}
		}
	}
	w.check(t)
}

// TestSharedSetsConcurrent: simulated agreements run from several
// goroutines at once share the package-level lender's sets across runs
// whose rounds nothing orders with each other's, each set given back as
// its party returns. Under -race, a network that still read a returned
// set's last payloads — delivered by reference — fails here. Results must
// equal the ones each call gives alone.
func TestSharedSetsConcurrent(t *testing.T) {
	cases := sharedCases()
	want := make([]any, len(cases))
	for i, c := range cases {
		res, err := c()
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		want[i] = res
	}
	var wg sync.WaitGroup
	errs := make([]error, 6)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				for i := range cases {
					k := (i + g) % len(cases)
					got, err := cases[k]()
					if err == nil && !reflect.DeepEqual(got, want[k]) {
						err = fmt.Errorf("case %d differs from its run alone", k)
					}
					errs[g] = errors.Join(errs[g], err)
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
}

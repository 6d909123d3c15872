package convexagreement_test

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
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

// lendWatch records a SessionMux's lending through its test hook: a set
// lent while it is still out, or returned while it is not, is an error.
type lendWatch struct {
	out        map[*core.Buffers]bool
	live, peak int
	err        error
}

func watchLending(sm *ca.SessionMux) *lendWatch {
	w := &lendWatch{out: map[*core.Buffers]bool{}}
	ca.SetLendHook(sm, func(b *core.Buffers, lent bool) {
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
		}
		w.out[b] = lent
	})
	return w
}

// TestMuxedSetsNotShared: over waves of concurrent runs no set is lent to
// two live runs, every run returns its set, and a mux holds no more sets
// than it had runs live at once; a run that fails returns its set too.
func TestMuxedSetsNotShared(t *testing.T) {
	const n = 4
	mp := localMuxes(t, n)
	watches := make([]*lendWatch, n)
	for p, sm := range mp.muxes {
		watches[p] = watchLending(sm)
	}
	rng := rand.New(rand.NewSource(3))
	inputs := make([][][]*big.Int, 3)
	for w := range inputs {
		for s := 0; s < 2+w; s++ {
			inputs[w] = append(inputs[w], mixedInputs(rng, n, 64*(1+s)))
		}
	}
	mp.waves(t, inputs)
	for p, w := range watches {
		if w.err != nil {
			t.Fatalf("party %d: %v", p, w.err)
		}
		if w.live != 0 {
			t.Fatalf("party %d: %d sets still lent after every run ended", p, w.live)
		}
		if w.peak != 4 || ca.SetsHeld(mp.muxes[p]) != w.peak {
			t.Fatalf("party %d: %d sets held, %d runs live at peak, want 4 and 4", p, ca.SetsHeld(mp.muxes[p]), w.peak)
		}
	}

	sm := ca.NewSessionMux(failingTransport{})
	w := watchLending(sm)
	mt, err := sm.Open(1, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()
	if _, err := ca.RunParty(mt, ca.ProtoOptimal, 0, big.NewInt(5)); err == nil {
		t.Fatal("a run over a failing transport succeeded")
	}
	if w.err != nil || w.peak != 1 || w.live != 0 || ca.SetsHeld(sm) != 1 {
		t.Fatalf("failed run: err %v, peak %d, live %d, held %d; want its one set returned", w.err, w.peak, w.live, ca.SetsHeld(sm))
	}
}

// TestMuxedShortValueAllocations is TestShortValueAllocations through a
// SessionMux per party over the in-process cluster: bytes allocated per
// party and 64-bit agreement, one session at a time, after a first
// agreement has grown the mux's work set. It reads 81 900 on the set the
// mux lends, 87 300 when each run grows a fresh set, and read 97 700 when
// besides that the mux fanned every broadcast out into n packets; most of
// the rest is the flattening fallback's per-tick packets and payload
// copies, as the in-process base takes no ExchangeVec.
func TestMuxedShortValueAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("five 16-party agreements")
	}
	const n, rounds, limit = 16, 5, 85_000
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

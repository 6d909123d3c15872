package convexagreement_test

import (
	"math/big"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	ca "convexagreement"
)

// TestSessionSequentialInstancesOverTCP runs three back-to-back agreement
// instances (two CA, one approximate) over one TCP mesh.
func TestSessionSequentialInstancesOverTCP(t *testing.T) {
	const n = 4
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	type outcome struct {
		first, second, approx *big.Int
	}
	results := make([]outcome, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, err := ca.DialTCP(ca.TCPConfig{
				ID: i, Addrs: addrs, Delta: 3 * time.Second, Listener: listeners[i],
			})
			if err != nil {
				errs[i] = err
				return
			}
			defer tr.Close()
			s := ca.NewSession(tr)
			o := outcome{}
			if o.first, err = s.Agree(ca.ProtoOptimal, 0, big.NewInt(int64(10+i))); err != nil {
				errs[i] = err
				return
			}
			if o.second, err = s.Agree(ca.ProtoOptimal, 0, big.NewInt(int64(-5*i))); err != nil {
				errs[i] = err
				return
			}
			if o.approx, err = s.ApproxAgree(big.NewInt(int64(100*i)), big.NewInt(1000), big.NewInt(8)); err != nil {
				errs[i] = err
				return
			}
			if s.Seq() != 3 {
				errs[i] = err
			}
			results[i] = o
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("party %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if results[i].first.Cmp(results[0].first) != 0 || results[i].second.Cmp(results[0].second) != 0 {
			t.Fatalf("session disagreement at party %d", i)
		}
	}
	if !ca.InHull(results[0].first, ints(10, 11, 12, 13)) {
		t.Errorf("first output %v outside hull", results[0].first)
	}
	if !ca.InHull(results[0].second, ints(0, -5, -10, -15)) {
		t.Errorf("second output %v outside hull", results[0].second)
	}
	// Approximate instance: ε-close, within [0, 300].
	for i := 1; i < n; i++ {
		d := new(big.Int).Sub(results[i].approx, results[0].approx)
		if d.Abs(d).Cmp(big.NewInt(8)) > 0 {
			t.Fatalf("approx outputs differ beyond ε")
		}
	}
	if !ca.InHull(results[0].approx, ints(0, 100, 200, 300)) {
		t.Errorf("approx output %v outside hull", results[0].approx)
	}
}

func TestRunPartyApproxValidation(t *testing.T) {
	if _, err := ca.RunPartyApprox(nil, nil, big.NewInt(1), big.NewInt(1)); err == nil {
		t.Error("nil input accepted")
	}
	if _, err := ca.RunPartyApprox(nil, big.NewInt(-1), big.NewInt(1), big.NewInt(1)); err == nil {
		t.Error("negative input accepted")
	}
}

// TestSessionLongValueAllocations holds a Session's Π_ℤ agreements on long
// values to what they cannot avoid allocating. Seven parties run four
// agreements each on 2¹⁸-bit inputs that share their top half, over the
// in-process transport; the 2nd to 4th, once every party's buffers have
// grown, may allocate at most 5ℓ bytes per party and agreement (ℓ = 32 KiB,
// the value's size), counted from runtime.MemStats across the whole
// process. What remains is the dispersal tuples, HIGHCOSTCA on the last
// block and the output; before the buffers were the party's it was ≈ 11ℓ.
func TestSessionLongValueAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("four long-value agreements")
	}
	const n, bits, rounds = 7, 1 << 18, 4
	trs, err := ca.NewLocalCluster(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	sessions := make([]*ca.Session, n)
	for i, tr := range trs {
		sessions[i] = ca.NewSession(tr)
		defer tr.Close()
	}
	rng := rand.New(rand.NewSource(3))
	inputs := make([][]*big.Int, rounds)
	for r := range inputs {
		top := new(big.Int).Lsh(new(big.Int).SetBit(new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), bits/2)), bits/2-1, 1), bits/2)
		for p := 0; p < n; p++ {
			low := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), bits/2))
			inputs[r] = append(inputs[r], low.Add(low, top))
		}
	}
	agree := func(r int) {
		t.Helper()
		outs := make([]*big.Int, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for p := range sessions {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				outs[p], errs[p] = sessions[p].Agree(ca.ProtoOptimal, 0, inputs[r][p])
			}(p)
		}
		wg.Wait()
		for p := range outs {
			if errs[p] != nil {
				t.Fatalf("agreement %d, party %d: %v", r, p, errs[p])
			}
			if outs[p].Cmp(outs[0]) != 0 {
				t.Fatalf("agreement %d: parties 0 and %d disagree", r, p)
			}
		}
	}
	agree(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 1; r < rounds; r++ {
		agree(r)
	}
	runtime.ReadMemStats(&after)
	perParty := float64(after.TotalAlloc-before.TotalAlloc) / float64(n*(rounds-1))
	ell := float64(bits / 8)
	t.Logf("%.0f bytes per party and agreement = %.2fℓ", perParty, perParty/ell)
	if perParty > 5*ell {
		t.Fatalf("%.0f bytes per party and agreement, want at most 5ℓ = %.0f", perParty, 5*ell)
	}
}

// TestShortValueAllocations holds 64-bit Π_ℤ agreements — the benchmark's
// mux_* shape, where only the additive κn²log²n term runs — to what they
// allocate per party. Sixteen parties over the in-process transport run
// RunParty on inputs that share their top 48 bits, each agreement on the
// set the package-level lender lends it; the 2nd to 5th agreements' bytes
// are counted from runtime.MemStats across the whole process, per party
// and agreement. The containers of every phase-king, Turpin–Coan round and
// Π_BA+ stage live in the run's one work set, shared by its instances, and
// the set outlives the run: about 1.6 KB per party and agreement here,
// where it was about 8.3 KB when each RunParty over this transport grew a
// fresh set. The limit is 4 000, so that losing the lent set fails it.
func TestShortValueAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("five 16-party agreements")
	}
	const n, rounds, limit = 16, 5, 4_000
	trs, err := ca.NewLocalCluster(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trs {
		defer tr.Close()
	}
	rng := rand.New(rand.NewSource(5))
	inputs := make([][]*big.Int, rounds)
	for r := range inputs {
		top := rng.Int63n(1<<15) << 48
		for p := 0; p < n; p++ {
			inputs[r] = append(inputs[r], big.NewInt(top|rng.Int63n(1<<48)))
		}
	}
	agree := func(r int) {
		t.Helper()
		outs := make([]*big.Int, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for p, tr := range trs {
			wg.Add(1)
			go func(p int, tr ca.Transport) {
				defer wg.Done()
				outs[p], errs[p] = ca.RunParty(tr, ca.ProtoOptimal, 0, inputs[r][p])
			}(p, tr)
		}
		wg.Wait()
		for p := range outs {
			if errs[p] != nil {
				t.Fatalf("agreement %d, party %d: %v", r, p, errs[p])
			}
			if outs[p].Cmp(outs[0]) != 0 {
				t.Fatalf("agreement %d: parties 0 and %d disagree", r, p)
			}
		}
	}
	agree(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 1; r < rounds; r++ {
		agree(r)
	}
	runtime.ReadMemStats(&after)
	perParty := float64(after.TotalAlloc-before.TotalAlloc) / float64(n*(rounds-1))
	t.Logf("%.0f bytes per party and agreement", perParty)
	if perParty > limit {
		t.Fatalf("%.0f bytes per party and agreement, want at most %d", perParty, limit)
	}
}

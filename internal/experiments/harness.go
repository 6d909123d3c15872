package experiments

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	ca "convexagreement"
	"convexagreement/internal/adversary"
	"convexagreement/internal/checkpoint"
	"convexagreement/internal/errfs"
	"convexagreement/internal/supervisor"
)

// The deployed-cluster harness: every check that runs the stack a deployment
// runs — sessions over fault-wrapped transports, a killed party supervised
// back from its write-ahead log — assembles, kills, resumes and judges its
// cluster here. E17–E20 are scenario tables over it, and the root package's
// soaks, recovery tests, E17/E18 benchmarks and session goldens call the
// same runs at their own scale. A new composition is a Cluster literal (or
// a constructor beside CrashRecovery) and a row that judges its Result.
//
// Three rules live here and nowhere else:
//
//  1. A party leaves the hub when its function returns — with an output, an
//     error or a panic-free early exit alike — so the lock-step rounds of
//     the parties still running keep closing.
//  2. A kill target keeps ONE fault wrapper across all supervisor attempts
//     on the hub: an in-process restart reuses the hub connection, the
//     wrapper's round counter is the connection's, and a kill fires once
//     per wrapper. A fresh wrapper per attempt counts from zero again and
//     re-fires every kill.
//  3. A restart is InspectState → transport positioned at NextRound →
//     fault wrapper at NextRound → Resume → continue from Seq(). On TCP the
//     transport is re-dialed announcing the resume round (peers replay
//     their outbox tails) and the wrapper is re-created with WrapFaultyAt;
//     on the hub rule 2 already holds both at NextRound.

// Cluster describes one deployed run: N parties, each running Instances
// back-to-back instances of Protocol through a Session over its transport
// behind WrapFaulty(Faults) — an empty schedule is a byte-identical
// passthrough.
type Cluster struct {
	N int
	// TCP runs the parties over a loopback TCP mesh with rejoin buffering
	// instead of the in-process hub. Parties then hold their connections
	// open until every kill target is done, so a rejoining party can catch
	// up from their outbox tails, and a kill target must be party N−1 (the
	// highest id dials everyone and needs no listener re-bound).
	TCP bool
	// Faults is every party's fault schedule. A party named in Faults.Kills
	// is a kill target: it runs under supervisor.Run and needs a Storage
	// entry to resume from.
	Faults ca.FaultConfig
	// Protocol and Width are passed to Session.Agree; "" is ProtoOptimal.
	Protocol  ca.Protocol
	Width     int
	Instances int
	// Input is party's input to instance seq.
	Input func(party, seq int) *big.Int
	// Storage lists the parties that checkpoint and what onto.
	Storage map[int]Disk
	// Attack, when set, makes party N−1 corrupt on the hub: each run builds
	// the attack afresh from Faults.Seed ^ (N−1), and the party exchanges
	// what it sends, unwrapped, until every other party is done (or
	// Faults.MaxRounds). adversary.ActiveCatalog's Build functions fit.
	Attack func(seed int64) adversary.Attack
}

// Disk is one checkpointing party's storage. Without Faults it is the real
// filesystem, in a temporary directory removed when the run ends; with
// Faults every run gets a fresh errfs.Mem under that schedule, which
// additionally yields the party's fault transcript and final WAL bytes.
type Disk struct {
	Mirror bool
	Faults *errfs.Faults
}

// PartyResult is what one party left behind.
type PartyResult struct {
	Outs []*big.Int // per instance; nil where the party did not finish it
	Err  error      // what ended the party early (the supervisor's verdict for a kill target)

	Seq     uint64 // Session.Seq, Rounds and Transcript when the party stopped
	Rounds  uint64
	Session uint64
	Net     uint64 // fault wrapper's transcript (on TCP: the last attempt's)

	Storage error  // Session.StorageErr when the party stopped
	Disk    uint64 // errfs.Mem fault transcript
	WAL     []byte // errfs.Mem: the WAL and its mirror copy after the run, each its two slot files length-prefixed
	WAL2    []byte

	Health      supervisor.Health // kill targets only
	FrontierGap uint64            // TCP: rounds the mesh ran ahead of the last (re)join
}

// Result is one run of a Cluster.
type Result struct {
	Cluster Cluster
	Parties []PartyResult
}

// Timing of the two meshes. Hub rounds close in microseconds, so its stall
// window never fires; the TCP mesh runs at Δ = 300 ms with room for 4096
// rounds of rejoin tail.
const (
	hubDelta, hubStallRounds = 100 * time.Millisecond, 100
	tcpDelta, tcpStallRounds = 300 * time.Millisecond, 40
	tcpRejoinWindow          = 4096
)

// cluster is a Cluster being run.
type cluster struct {
	Cluster
	res    *Result
	stores map[int]ca.StorageOptions // this run's disks
	tmp    string                    // root of the real-filesystem state directories
	left   atomic.Int32

	locals []*ca.LocalTransport  // hub
	wraps  []*ca.FaultyTransport // hub: rule 2, one wrapper per party per run

	addrs     []string // TCP
	listeners []net.Listener
	targets   atomic.Int32  // TCP: kill targets still running
	killsDone chan struct{} // TCP: closed once every kill target has returned
}

// Run executes the cluster once. The error is the harness's own (no hub, no
// listener, no temporary directory); what happened to the parties is in the
// Result.
func (c Cluster) Run() (*Result, error) {
	run, err := c.assemble()
	if err != nil {
		return nil, err
	}
	defer run.close()
	var all sync.WaitGroup
	for i := 0; i < c.N; i++ {
		all.Add(1)
		go func() {
			defer all.Done()
			if c.Attack != nil && i == c.N-1 {
				run.attack()
			} else {
				run.party(i)
			}
		}()
	}
	all.Wait()
	return run.res, nil
}

// assemble builds everything a run shares: the mesh, the disks, the result.
func (c Cluster) assemble() (*cluster, error) {
	if c.Protocol == "" {
		c.Protocol = ca.ProtoOptimal
	}
	run := &cluster{
		Cluster: c,
		res:     &Result{Cluster: c, Parties: make([]PartyResult, c.N)},
		stores:  make(map[int]ca.StorageOptions, len(c.Storage)),
	}
	for i := range run.res.Parties {
		run.res.Parties[i].Outs = make([]*big.Int, c.Instances)
	}
	honest := c.N
	if c.Attack != nil {
		honest--
	}
	run.left.Store(int32(honest))
	for i, d := range c.Storage {
		o := ca.StorageOptions{Mirror: d.Mirror}
		if d.Faults != nil {
			o.FS = errfs.NewMem(*d.Faults)
		} else if run.tmp == "" {
			tmp, err := os.MkdirTemp("", "cluster-")
			if err != nil {
				return nil, err
			}
			run.tmp = tmp
		}
		run.stores[i] = o
	}
	if !c.TCP {
		locals, err := ca.NewLocalCluster(c.N, 0)
		if err != nil {
			run.close()
			return nil, err
		}
		run.locals, run.wraps = locals, make([]*ca.FaultyTransport, c.N)
		return run, nil
	}
	run.addrs = make([]string, c.N)
	run.listeners = make([]net.Listener, c.N)
	run.killsDone = make(chan struct{})
	for i := 0; i < c.N-1; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			run.close()
			return nil, err
		}
		run.listeners[i], run.addrs[i] = ln, ln.Addr().String()
	}
	run.addrs[c.N-1] = "127.0.0.1:0" // never listened on nor dialed
	for i := 0; i < c.N; i++ {
		if run.kills(i) > 0 {
			run.targets.Add(1)
		}
	}
	if run.targets.Load() == 0 {
		close(run.killsDone)
	}
	return run, nil
}

// close releases what assemble took from the host.
func (c *cluster) close() {
	if c.tmp != "" {
		os.RemoveAll(c.tmp)
	}
	for _, ln := range c.listeners {
		if ln != nil {
			ln.Close() // a no-op for the listeners DialTCP took over
		}
	}
}

// kills counts the scheduled kills of party i.
func (c *cluster) kills(i int) int {
	k := 0
	for _, kill := range c.Faults.Kills {
		if kill.Party == i {
			k++
		}
	}
	return k
}

// dir is party i's state directory inside its filesystem.
func (c *cluster) dir(i int) string {
	return filepath.Join(c.tmp, fmt.Sprintf("p%d", i))
}

// party is the whole of party i's participation (rule 1: it leaves the hub
// when this returns). A kill target runs its attempts under the supervisor,
// everyone else runs one.
func (c *cluster) party(i int) {
	p := &c.res.Parties[i]
	defer c.left.Add(-1)
	if !c.TCP {
		defer c.locals[i].Close()
	}
	if kills := c.kills(i); kills > 0 {
		cfg := supervisor.Config{
			Delta:       hubDelta,
			StallRounds: hubStallRounds,
			MaxRestarts: kills + 2,
			BackoffBase: time.Millisecond,
			BackoffMax:  2 * time.Millisecond,
			N:           c.N,
			T:           (c.N - 1) / 3,
		}
		if c.TCP {
			cfg.Delta, cfg.StallRounds = tcpDelta, tcpStallRounds
		}
		p.Health, p.Err = supervisor.Run(cfg, func(a *supervisor.Attempt) error { return c.attempt(i, a) })
		if c.TCP && c.targets.Add(-1) == 0 {
			close(c.killsDone)
		}
	} else {
		p.Err = c.attempt(i, nil)
	}
	if mem, ok := c.stores[i].FS.(*errfs.Mem); ok {
		p.Disk = mem.Transcript()
		for k, slots := range checkpoint.CopyFiles(c.dir(i), checkpoint.Options{Mirror: true}) {
			dst := []*[]byte{&p.WAL, &p.WAL2}[k]
			for _, name := range slots {
				if raw, ok := mem.ReadFileRaw(name); ok {
					*dst = append(binary.AppendUvarint(*dst, uint64(len(raw))), raw...)
				}
			}
		}
	}
}

// attempt is one life of party i, the first or a restart alike (rule 3): a
// checkpointing party finds out where its log ends, takes its transport
// positioned there, resumes, and continues from the first unfinished
// instance. a is nil outside the supervisor.
func (c *cluster) attempt(i int, a *supervisor.Attempt) error {
	p := &c.res.Parties[i]
	store, durable := c.stores[i]
	var at uint64
	if durable {
		st, err := ca.InspectStateOpts(c.dir(i), store)
		if err != nil {
			return err
		}
		at = st.NextRound
	}
	tr, release, err := c.join(i, at, a)
	if err != nil {
		return err
	}
	defer release()
	s := ca.NewSession(tr)
	if durable {
		if err := s.ResumeOpts(c.dir(i), store); err != nil {
			return err
		}
		defer s.Close()
	}
	defer func() {
		p.Seq, p.Rounds, p.Session, p.Net, p.Storage = s.Seq(), s.Rounds(), s.Transcript(), tr.Transcript(), s.StorageErr()
	}()
	if a != nil {
		a.Progress(s.Rounds)
		a.ReportStorage(s.StorageErr())
	}
	for seq := s.Seq(); seq < uint64(c.Instances); seq++ {
		out, err := s.Agree(c.Protocol, c.Width, c.Input(i, int(seq)))
		if err != nil {
			return err
		}
		p.Outs[seq] = out
	}
	return nil
}

// join hands party i its transport positioned at absolute round at, behind
// the fault schedule, and the function that gives it up when the attempt
// ends.
func (c *cluster) join(i int, at uint64, a *supervisor.Attempt) (*ca.FaultyTransport, func(), error) {
	if !c.TCP {
		// Rule 2: the hub connection and its wrapper outlive the attempt;
		// both already stand at round at.
		var err error
		if c.wraps[i] == nil {
			c.wraps[i], err = ca.WrapFaulty(c.locals[i], c.Faults)
		}
		return c.wraps[i], func() {}, err
	}
	tcp, err := ca.DialTCP(ca.TCPConfig{
		ID: i, Addrs: c.addrs, Delta: tcpDelta,
		Listener: c.listeners[i], ResumeRound: at, RejoinWindow: tcpRejoinWindow,
	})
	if err != nil {
		return nil, nil, err
	}
	release := func() {
		c.res.Parties[i].FrontierGap = tcp.FrontierGap()
		if c.kills(i) == 0 {
			<-c.killsDone // serve the rejoining parties' catch-up first
		}
		tcp.Close()
	}
	if a != nil {
		a.AbortOnStall(func() { tcp.Close() })
		a.ReportPeers(c.N - len(tcp.Faulty()))
	}
	tr, err := ca.WrapFaultyAt(tcp, c.Faults, at)
	if err != nil {
		release()
		return nil, nil, err
	}
	return tr, release, nil
}

// attack is the corrupt party N−1: traffic, not protocol, on the raw hub
// connection. It stands down once every other party has returned, or when
// its own rounds error out as the hub drains.
func (c *cluster) attack() {
	tr := c.locals[c.N-1]
	defer tr.Close()
	attack := c.Attack(c.Faults.Seed ^ int64(c.N-1))
	for r := 0; (c.Faults.MaxRounds == 0 || r < c.Faults.MaxRounds) && c.left.Load() > 0; r++ {
		if _, err := tr.Exchange(attack(r, c.N)); err != nil {
			return
		}
	}
}

// Verdict is Definition 1 over a clean set: Agree — every clean party has an
// output and all are equal (Termination and Agreement) — and Valid — that
// output lies in the hull of the clean parties' inputs (Convex Validity).
// Why names the first violation.
type Verdict struct {
	Agree, Valid bool
	Why          string
}

// JudgeInstance judges instance seq over the parties in clean. Parties
// outside it carry no guarantee: their faults were charged to the t budget.
// Scenarios place every honest-but-disturbed party's input inside the clean
// parties' band, so the clean hull bounds every honest input.
func (r *Result) JudgeInstance(seq int, clean []int) Verdict {
	v := Verdict{Agree: true, Valid: true}
	r.judge(&v, seq, clean)
	return v
}

// Judge is JudgeInstance over every instance of the run.
func (r *Result) Judge(clean []int) Verdict {
	v := Verdict{Agree: true, Valid: true}
	for seq := 0; seq < r.Cluster.Instances; seq++ {
		r.judge(&v, seq, clean)
	}
	return v
}

// judge folds instance seq's violations into v.
func (r *Result) judge(v *Verdict, seq int, clean []int) {
	fail := func(agree, valid bool, format string, args ...any) {
		v.Agree, v.Valid = v.Agree && agree, v.Valid && valid
		if v.Why == "" {
			v.Why = fmt.Sprintf("instance %d: ", seq) + fmt.Sprintf(format, args...)
		}
	}
	var ref *big.Int
	var inputs []*big.Int
	for _, i := range clean {
		inputs = append(inputs, r.Cluster.Input(i, seq))
		out := r.Parties[i].Outs[seq]
		switch {
		case out == nil:
			fail(false, false, "party %d has no output (%v)", i, r.Parties[i].Err)
		case ref == nil:
			ref = out
		case out.Cmp(ref) != 0:
			fail(false, true, "party %d output %v, party %d output %v", clean[0], ref, i, out)
		}
	}
	if ref == nil {
		fail(false, false, "no clean output")
	} else if !ca.InHull(ref, inputs) {
		fail(true, false, "output %v outside the clean hull of %v", ref, inputs)
	}
}

// SameRun compares two runs of one seeded Cluster layer by layer — outputs,
// session transcripts, fault-wrapper transcripts, errfs fault transcripts
// and WAL bytes, at every party — and reports every difference; nil means
// the second run replayed the first bit for bit.
func SameRun(a, b *Result) error {
	var diffs []error
	differ := func(i int, layer string, x, y any) {
		diffs = append(diffs, fmt.Errorf("party %d: %s differs across identically-seeded runs: %v vs %v", i, layer, x, y))
	}
	for i := range a.Parties {
		p, q := &a.Parties[i], &b.Parties[i]
		for seq := range p.Outs {
			if x, y := p.Outs[seq], q.Outs[seq]; (x == nil) != (y == nil) || (x != nil && x.Cmp(y) != 0) {
				differ(i, fmt.Sprintf("instance %d output", seq), x, y)
			}
		}
		if (p.Err == nil) != (q.Err == nil) {
			differ(i, "outcome", p.Err, q.Err)
		}
		if p.Seq != q.Seq || p.Rounds != q.Rounds {
			differ(i, "session position (seq/rounds)", fmt.Sprint(p.Seq, "/", p.Rounds), fmt.Sprint(q.Seq, "/", q.Rounds))
		}
		for _, d := range []struct {
			layer string
			x, y  uint64
		}{
			{"session transcript", p.Session, q.Session},
			{"faultnet transcript", p.Net, q.Net},
			{"errfs transcript", p.Disk, q.Disk},
		} {
			if d.x != d.y {
				differ(i, d.layer, fmt.Sprintf("%016x", d.x), fmt.Sprintf("%016x", d.y))
			}
		}
		if !bytes.Equal(p.WAL, q.WAL) || !bytes.Equal(p.WAL2, q.WAL2) {
			differ(i, "WAL", fmt.Sprintf("%d+%d bytes", len(p.WAL), len(p.WAL2)), fmt.Sprintf("%d+%d bytes", len(q.WAL), len(q.WAL2)))
		}
	}
	return errors.Join(diffs...)
}

// mark renders one property cell of a deployed-stack table.
func mark(ok bool) string {
	if ok {
		return "ok"
	}
	return "VIOLATED"
}

// mustRun runs a fixed experiment configuration; an error means the harness
// itself is broken.
func mustRun(c Cluster) *Result {
	res, err := c.Run()
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return res
}

// allBut lists the parties 0..n-1 without the excluded ones.
func allBut(n int, excluded ...int) []int {
	var out []int
	for i := 0; i < n; i++ {
		if !slices.Contains(excluded, i) {
			out = append(out, i)
		}
	}
	return out
}

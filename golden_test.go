package convexagreement_test

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"math/big"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	ca "convexagreement"
	"convexagreement/internal/experiments"
)

var updateGoldens = flag.Bool("update", false, "rewrite testdata/protocol_goldens.txt from this build")

const goldenPath = "testdata/protocol_goldens.txt"

// TestProtocolGoldens pins whole-protocol transcripts: a refactor of the
// protocol plane that changes a wire byte, a tag, a round count, a
// tie-break or an output moves at least one row. Sim rows cover every
// protocol × {no corruption, every adversary at f = t} × n ∈ {4, 7}; session
// rows are per-party Session.Transcript() digests over a local cluster,
// plain and under a seeded drop + corrupt + duplicate schedule. The file is
// rewritten only by `go test -run TestProtocolGoldens -update .`.
func TestProtocolGoldens(t *testing.T) {
	var got bytes.Buffer
	for _, n := range []int{4, 7} {
		for _, proto := range ca.Protocols() {
			for _, adv := range append([]ca.AdversaryKind{""}, ca.AdversaryKinds()...) {
				got.WriteString(goldenSimRow(t, proto, adv, n))
			}
		}
	}
	for _, faulty := range []bool{false, true} {
		for _, proto := range ca.Protocols() {
			got.WriteString(goldenSessionRow(t, proto, faulty))
		}
	}
	if *updateGoldens {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (record with -update)", err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d golden rows, file has %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("row %d moved:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
		}
	}
}

// goldenWidth is a width every fixed-length protocol accepts at n: n².
func goldenWidth(n int) int { return n * n }

// goldenInputs are fixed, mixed-sign for Π_ℤ, and below 2^16 ≤ 2^(n²) in
// magnitude so the fixed-length protocols take them too.
func goldenInputs(proto ca.Protocol, n int) []*big.Int {
	in := make([]*big.Int, n)
	for i := range in {
		v := int64(1000 + (i*7919+n*104729)%50000)
		if proto.AcceptsNegative() && i%3 == 1 {
			v = -v
		}
		in[i] = big.NewInt(v)
	}
	return in
}

func goldenSimRow(t *testing.T, proto ca.Protocol, adv ca.AdversaryKind, n int) string {
	t.Helper()
	opts := ca.Options{Protocol: proto, Seed: 19}
	if proto.NeedsWidth() {
		opts.Width = goldenWidth(n)
	}
	if adv != "" {
		// f = t, party 0 (the first king, the first broadcaster) among them.
		opts.Corruptions = map[int]ca.Corruption{}
		for k := 0; k < (n-1)/3; k++ {
			opts.Corruptions[k*3] = ca.Corruption{Kind: adv, Input: big.NewInt(60000)}
		}
	}
	res, err := ca.Agree(goldenInputs(proto, n), opts)
	if err != nil {
		t.Fatalf("%s n=%d adv=%q: %v", proto, n, adv, err)
	}
	labels := make([]string, 0, len(res.BitsByLabel))
	for l := range res.BitsByLabel {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	h := fnv.New64a()
	for _, l := range labels {
		fmt.Fprintf(h, "%s=%d\n", l, res.BitsByLabel[l])
	}
	return fmt.Sprintf("sim %s n=%d adv=%s out=%v rounds=%d hbits=%d cbits=%d msgs=%d labels=%016x\n",
		proto, n, adv, res.Output, res.Rounds, res.HonestBits, res.CorruptBits, res.Messages, h.Sum64())
}

func goldenSessionRow(t *testing.T, proto ca.Protocol, faulty bool) string {
	t.Helper()
	const n = 7
	c := experiments.Cluster{N: n, Protocol: proto, Instances: 1}
	net := "plain"
	if faulty {
		// Faults only on links out of two parties (t = 2): the other five stay
		// a correct quorum, so every protocol terminates.
		net = "faulty"
		c.Faults = ca.FaultConfig{Seed: 19, Rules: []ca.FaultRule{
			{Kind: ca.FaultDrop, From: 1, To: ca.AnyParty, Prob: 0.3},
			{Kind: ca.FaultCorrupt, From: 4, To: ca.AnyParty, Prob: 0.3},
			{Kind: ca.FaultDuplicate, From: 4, To: ca.AnyParty, Prob: 0.3},
		}}
	}
	inputs := goldenInputs(proto, n)
	c.Input = func(party, _ int) *big.Int { return inputs[party] }
	if proto.NeedsWidth() {
		c.Width = goldenWidth(n)
	}
	cells := make([]string, n)
	for i, p := range mustRunCluster(t, c).Parties {
		if p.Err != nil {
			cells[i] = fmt.Sprintf("err(%v)", p.Err)
		} else {
			cells[i] = fmt.Sprintf("%v/%d/%016x", p.Outs[0], p.Rounds, p.Session)
		}
	}
	return fmt.Sprintf("session %s %s %s\n", proto, net, strings.Join(cells, " "))
}

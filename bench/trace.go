package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	ca "convexagreement"
)

// Tracing is done from the benchmark's own files: a wrapper around the
// ca.Transport handed to the protocol records one span per Exchange, and
// the timing filesystem records one span per WAL write and fsync. The
// program itself carries no spans (ROADMAP item 4).
//
// Span tree of one party's side of one agreement:
//
//	agreement (id = workload/key/party)
//	├── exchange   one per round: tag, layer, bytes out/in, messages in
//	├── fs.write   durable_seq only
//	└── fs.sync    durable_seq only
//
// The root's self time — its duration minus the part its children cover —
// is the protocol's compute time (plus the adapters between the public and
// internal packet types, which run inside the same interval).

// roundSpan is one Exchange as one party saw it. It holds no pointer and
// is 32 bytes: a traced mux_closed wave records 400 000 of them, and spans
// the garbage collector had to scan made tracing cost 10 % of throughput.
type roundSpan struct {
	start, end time.Duration
	bytesOut   int32
	bytesIn    int32
	msgsIn     int32
	layer      layerID // of the first packet sent; layerNone when nothing was sent
}

// fsSpan is one WAL file operation.
type fsSpan struct {
	sync       bool
	start, end time.Duration
	bytes      int
}

// agreementTrace is the root span of one party's side of one agreement
// with its children. It is filled by the one goroutine that drives that
// side, and handed to the tracer when the agreement ends.
type agreementTrace struct {
	key        int // session index or sequence number within the workload
	party      int
	start, end time.Duration
	rounds     []roundSpan
	tags       []string // parallel to rounds; kept only for agreements that go into the trace file
	badTag     string   // first tag sent that belongs to no layer
	fs         []fsSpan
}

// tracer keeps finished agreement traces in memory until the run ends.
type tracer struct {
	t0     time.Time
	rounds atomic.Int64 // rounds of the last finished agreement: the next one's capacity
	mu     sync.Mutex
	filed  map[int]bool // keys of the agreements that go into the trace file
	done   []*agreementTrace
}

func newTracer() *tracer { return &tracer{t0: now(), filed: map[int]bool{}} }

func (tr *tracer) offset() time.Duration { return since(tr.t0) }

func (tr *tracer) begin(key, party int) *agreementTrace {
	at := &agreementTrace{key: key, party: party, rounds: make([]roundSpan, 0, tr.rounds.Load())}
	tr.mu.Lock()
	if len(tr.filed) < traceFileAgreements {
		tr.filed[key] = true
	}
	if tr.filed[key] {
		at.tags = make([]string, 0, cap(at.rounds))
	}
	tr.mu.Unlock()
	at.start = tr.offset()
	return at
}

func (tr *tracer) finish(at *agreementTrace) {
	at.end = tr.offset()
	tr.rounds.Store(int64(len(at.rounds)))
	tr.mu.Lock()
	tr.done = append(tr.done, at)
	tr.mu.Unlock()
}

// tracingTransport wraps one party's ca.Transport. While cur is nil it
// passes rounds straight through, which is how a traced run interleaves
// untraced agreements to measure the tracing overhead. cur is set and read
// by the goroutine driving the transport only.
type tracingTransport struct {
	ca.Transport
	tr  *tracer
	cur *agreementTrace
}

func (t *tracingTransport) Exchange(out []ca.Packet) ([]ca.Message, error) {
	at := t.cur
	if at == nil {
		return t.Transport.Exchange(out)
	}
	sp := roundSpan{start: t.tr.offset()}
	in, err := t.Transport.Exchange(out)
	sp.end = t.tr.offset()
	tag := ""
	if len(out) > 0 {
		tag = out[0].Tag
		if sp.layer = layerIDOf(tag); sp.layer == layerNone && at.badTag == "" {
			at.badTag = tag
		}
	}
	self := t.ID()
	for _, p := range out {
		if p.To != self { // self-delivery never reaches a link; sim does not count it either
			sp.bytesOut += int32(len(p.Payload))
		}
	}
	for _, m := range in {
		sp.bytesIn += int32(len(m.Payload))
	}
	sp.msgsIn = int32(len(in))
	at.rounds = append(at.rounds, sp)
	if at.tags != nil {
		at.tags = append(at.tags, tag)
	}
	return in, err
}

// layerID names the module that owns a round.
type layerID uint8

const (
	layerNone layerID = iota
	layerBA
	layerBAPlus
	layerHighCostCA
	layerCore
)

// protoLayers are the layer names, indexed by layerID.
var protoLayers = [...]string{layerBA: "ba", layerBAPlus: "baplus", layerHighCostCA: "highcostca", layerCore: "core"}

// layerIDOf maps a Packet.Tag to the module that owns the round. Tags are
// paths ("ca/mag/flcab/fpb/lba/root/a/val/tc1"); the leaf names the step.
// An unknown leaf is layerNone so a new tag cannot slip into a layer
// silently.
func layerIDOf(tag string) layerID {
	leaf := tag[strings.LastIndexByte(tag, '/')+1:]
	switch {
	case leaf == "pk1", leaf == "pk2", leaf == "pk3", leaf == "tc1", leaf == "tc2":
		return layerBA
	case leaf == "dist", leaf == "vote", leaf == "shareout", leaf == "sharerelay":
		return layerBAPlus
	case strings.HasPrefix(leaf, "hc-"):
		return layerHighCostCA
	case leaf == "side":
		return layerCore
	}
	return layerNone
}

// layerOf is layerIDOf by name; "" for an unknown leaf.
func layerOf(tag string) string { return protoLayers[layerIDOf(tag)] }

// ledger folds the traces of one workload into per-agreement layer
// metrics. Times are medians over all traced agreements of the mean over
// parties, like the end-to-end latency they explain. Counts (rounds, bytes,
// fsyncs) are means over the first exact traced agreements, which every
// full-length run completes, so they depend on the seed and not on how far
// the window got. harnessMS maps an agreement key to the end-to-end latency
// the harness observed for it, for the residual.
func ledger(traces []*agreementTrace, harnessMS map[int]float64, exact int) (map[string]float64, error) {
	byKey := map[int][]*agreementTrace{}
	for _, at := range traces {
		byKey[at.key] = append(byKey[at.key], at)
	}
	type perAgreement struct {
		rounds, bytes                float64
		layerRounds, layerBytes      map[string]float64
		layerExchange                map[string]float64
		exchange, compute            float64
		fsWrite, fsSync, syncs, wrtn float64
	}
	var all []perAgreement
	residual := []float64{}
	keys := make([]int, 0, len(byKey))
	for key := range byKey {
		keys = append(keys, key)
	}
	sort.Ints(keys)
	for _, key := range keys {
		parts := byKey[key]
		sort.Slice(parts, func(i, j int) bool { return parts[i].party < parts[j].party })
		nRounds := len(parts[0].rounds)
		for _, at := range parts {
			if len(at.rounds) != nRounds {
				return nil, fmt.Errorf("trace: agreement %d: party %d saw %d rounds, party %d saw %d",
					key, at.party, len(at.rounds), parts[0].party, nRounds)
			}
			if at.badTag != "" {
				return nil, fmt.Errorf("trace: tag %q belongs to no known layer", at.badTag)
			}
		}
		// A round belongs to the layer of the tag any party sent under. A
		// round in which nobody sent (a conditional broadcast that no party
		// took) stays with the sub-protocol of the round before it.
		layers := make([]string, nRounds)
		prev := layerCore
		for r := range layers {
			for _, at := range parts {
				if l := at.rounds[r].layer; l != layerNone {
					prev = l
					break
				}
			}
			layers[r] = protoLayers[prev]
		}
		pa := perAgreement{
			rounds:        float64(nRounds),
			layerRounds:   map[string]float64{},
			layerBytes:    map[string]float64{},
			layerExchange: map[string]float64{},
		}
		for _, l := range layers {
			pa.layerRounds[l]++
		}
		np := float64(len(parts))
		for _, at := range parts {
			span := ms(at.end - at.start)
			children := 0.0
			for r, sp := range at.rounds {
				d := ms(sp.end - sp.start)
				children += d
				pa.exchange += d / np
				pa.layerExchange[layers[r]] += d / np
				pa.bytes += float64(sp.bytesOut)
				pa.layerBytes[layers[r]] += float64(sp.bytesOut)
			}
			for _, sp := range at.fs {
				d := ms(sp.end - sp.start)
				children += d
				if sp.sync {
					pa.fsSync += d / np
					pa.syncs++
				} else {
					pa.fsWrite += d / np
					pa.wrtn += float64(sp.bytes)
				}
			}
			pa.compute += (span - children) / np
			if h, ok := harnessMS[key]; ok && h > 0 {
				residual = append(residual, (h-span)/h)
			}
		}
		// Counts are summed over parties as integers and divided once, so a
		// count every party agrees on stays exact.
		pa.syncs /= np
		pa.wrtn /= np
		all = append(all, pa)
	}
	out := map[string]float64{}
	if len(all) == 0 {
		return out, nil
	}
	col := func(f func(perAgreement) float64) []float64 {
		v := make([]float64, len(all))
		for i, pa := range all {
			v[i] = f(pa)
		}
		return v
	}
	count := func(f func(perAgreement) float64) float64 {
		return mean(col(f)[:min(exact, len(all))])
	}
	out["proto.rounds"] = count(func(p perAgreement) float64 { return p.rounds })
	out["proto.bytes_out"] = count(func(p perAgreement) float64 { return p.bytes })
	out["proto.exchange_ms"] = median(col(func(p perAgreement) float64 { return p.exchange }))
	out["proto.compute_ms"] = median(col(func(p perAgreement) float64 { return p.compute }))
	for _, l := range protoLayers[layerBA:] {
		l := l
		out[l+".rounds"] = count(func(p perAgreement) float64 { return p.layerRounds[l] })
		out[l+".bytes_out"] = count(func(p perAgreement) float64 { return p.layerBytes[l] })
		out[l+".exchange_ms"] = median(col(func(p perAgreement) float64 { return p.layerExchange[l] }))
	}
	out["checkpoint.syncs"] = count(func(p perAgreement) float64 { return p.syncs })
	out["checkpoint.bytes_written"] = count(func(p perAgreement) float64 { return p.wrtn })
	out["checkpoint.sync_ms"] = median(col(func(p perAgreement) float64 { return p.fsSync }))
	out["checkpoint.write_ms"] = median(col(func(p perAgreement) float64 { return p.fsWrite }))
	out["trace.residual_frac"] = median(residual)
	return out, nil
}

// traceFileAgreements bounds the trace file: a traced mux_closed run holds
// several hundred thousand spans, all of which feed the ledger, but the
// file keeps the spans (and only they keep their tags) of the first few
// agreements traced.
const traceFileAgreements = 4

type spanJSON struct {
	Name     string `json:"name"`
	ID       string `json:"id"`
	Parent   string `json:"parent,omitempty"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Tag      string `json:"tag,omitempty"`
	Layer    string `json:"layer,omitempty"`
	BytesOut int    `json:"bytes_out,omitempty"`
	BytesIn  int    `json:"bytes_in,omitempty"`
	MsgsIn   int    `json:"msgs_in,omitempty"`
	Bytes    int    `json:"bytes,omitempty"`
}

// writeTrace writes the spans of the agreements the tracer kept tags for to
// <dir>/<workload>.trace.json and returns the path.
func writeTrace(dir, workload string, traces []*agreementTrace) (string, error) {
	traced, filed := map[int]bool{}, map[int]bool{}
	for _, at := range traces {
		traced[at.key] = true
		if at.tags != nil {
			filed[at.key] = true
		}
	}
	doc := struct {
		Workload   string     `json:"workload"`
		Agreements int        `json:"agreements_traced"`
		Written    int        `json:"agreements_written"`
		Spans      []spanJSON `json:"spans"`
	}{Workload: workload, Agreements: len(traced), Written: len(filed)}
	for _, at := range traces {
		if at.tags == nil {
			continue
		}
		id := fmt.Sprintf("%s/%d/%d", workload, at.key, at.party)
		doc.Spans = append(doc.Spans, spanJSON{Name: "agreement", ID: id, StartNS: int64(at.start), EndNS: int64(at.end)})
		for r, sp := range at.rounds {
			doc.Spans = append(doc.Spans, spanJSON{
				Name: "exchange", ID: id, Parent: "agreement", StartNS: int64(sp.start), EndNS: int64(sp.end),
				Tag: at.tags[r], Layer: protoLayers[sp.layer], BytesOut: int(sp.bytesOut), BytesIn: int(sp.bytesIn), MsgsIn: int(sp.msgsIn),
			})
		}
		for _, sp := range at.fs {
			name := "fs.write"
			if sp.sync {
				name = "fs.sync"
			}
			doc.Spans = append(doc.Spans, spanJSON{Name: name, ID: id, Parent: "agreement", StartNS: int64(sp.start), EndNS: int64(sp.end), Bytes: sp.bytes})
		}
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	return path, os.WriteFile(path, raw, 0o644)
}

package main

import "encoding/json"

// This file is the single source of the benchmark contract: BENCHMARK.json
// at the repository root is `go run ./bench -contract` and a test keeps
// the two identical.

// runSeconds is how long one run measures (warm-up and set-up excluded).
const runSeconds = 20

// metric is one named metric. Per-layer metrics carry no bound.
type metric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func e2e(name, unit, better string, bound float64) metric {
	return metric{Name: name, Unit: unit, Better: better, Bound: &bound}
}

// endToEnd are the metrics a user of the system sees, measured with tracing
// off, on every workload. The bound is the share of the parent commit's
// median by which a later change may worsen the metric.
var endToEnd = []metric{
	e2e("setup_s", "s", "lower", 0.25),
	e2e("agreements_per_s", "1/s", "higher", 0.25),
	e2e("latency_p50_ms", "ms", "lower", 0.25),
	e2e("latency_p90_ms", "ms", "lower", 0.25),
	e2e("alloc_mb_per_agreement", "MB", "lower", 0.10),
	e2e("peak_rss_mb", "MB", "lower", 0.25),
}

// perLayer are the ledger lines of the traced run. The first group comes
// from the workload's own trace (and is 0 on a workload that does not
// exercise the layer); the second group are direct probes of internal/*
// public functions and do not depend on the workload.
var perLayer = []metric{
	// protocol, by Packet.Tag leaf → layer, per agreement
	{Name: "proto.rounds", Unit: "count", Better: "lower"},
	{Name: "proto.bytes_out", Unit: "B", Better: "lower"},
	{Name: "proto.compute_ms", Unit: "ms", Better: "lower"},
	{Name: "proto.exchange_ms", Unit: "ms", Better: "lower"},
	{Name: "ba.rounds", Unit: "count", Better: "lower"},
	{Name: "ba.bytes_out", Unit: "B", Better: "lower"},
	{Name: "ba.exchange_ms", Unit: "ms", Better: "lower"},
	{Name: "baplus.rounds", Unit: "count", Better: "lower"},
	{Name: "baplus.bytes_out", Unit: "B", Better: "lower"},
	{Name: "baplus.exchange_ms", Unit: "ms", Better: "lower"},
	{Name: "highcostca.rounds", Unit: "count", Better: "lower"},
	{Name: "highcostca.bytes_out", Unit: "B", Better: "lower"},
	{Name: "core.rounds", Unit: "count", Better: "lower"},
	// sessmux / tcpnet as the workload drove them
	{Name: "sessmux.ticks", Unit: "count", Better: "lower"},
	{Name: "sessmux.tick_us", Unit: "us", Better: "lower"},
	{Name: "sessmux.frames_per_tick", Unit: "count", Better: "higher"},
	{Name: "sessmux.bytes_copied", Unit: "B", Better: "lower"},
	{Name: "sessmux.shed", Unit: "count", Better: "lower"},
	{Name: "tcpnet.faulty_peers", Unit: "count", Better: "lower"},
	{Name: "tcpnet.demotions", Unit: "count", Better: "lower"},
	// checkpoint through the timing FS, per party per agreement
	{Name: "checkpoint.syncs", Unit: "count", Better: "lower"},
	{Name: "checkpoint.sync_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.write_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.bytes_written", Unit: "B", Better: "lower"},
	// simulator, exact by seed
	{Name: "sim.rounds", Unit: "count", Better: "lower"},
	{Name: "sim.messages", Unit: "count", Better: "lower"},
	{Name: "sim.honest_bits", Unit: "bit", Better: "lower"},
	{Name: "sim.round_us", Unit: "us", Better: "lower"},
	// runtime and the harness itself
	{Name: "runtime.cpu_ms_per_agreement", Unit: "ms", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.mallocs_per_agreement", Unit: "count", Better: "lower"},
	{Name: "load.sched_lag_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "load.slo_miss_frac", Unit: "frac", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "trace.residual_frac", Unit: "frac", Better: "lower"},

	// direct probes
	{Name: "bitstr.frombig_ms", Unit: "ms", Better: "lower"},
	{Name: "bitstr.slice_ms", Unit: "ms", Better: "lower"},
	{Name: "bitstr.big_ms", Unit: "ms", Better: "lower"},
	{Name: "bitstr.compare_ms", Unit: "ms", Better: "lower"},
	{Name: "rs.encode_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "rs.decode_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "gf16.dotwords_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "merkle.build_us", Unit: "us", Better: "lower"},
	{Name: "merkle.verify_us", Unit: "us", Better: "lower"},
	{Name: "hashing.sum_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "baplus.long_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.frame_roundtrip_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.frame_roundtrip_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "wire.allocs_per_frame", Unit: "count", Better: "lower"},
	{Name: "tcpnet.round_us.n16", Unit: "us", Better: "lower"},
	{Name: "tcpnet.round_us.n7", Unit: "us", Better: "lower"},
	{Name: "tcpnet.writes_per_round", Unit: "count", Better: "lower"},
	{Name: "tcpnet.bytes_per_round", Unit: "B", Better: "lower"},
	{Name: "sessmux.tick_us.live64", Unit: "us", Better: "lower"},
	{Name: "channet.round_us", Unit: "us", Better: "lower"},
	{Name: "checkpoint.append_round_us", Unit: "us", Better: "lower"},
	{Name: "checkpoint.real_fsync_us", Unit: "us", Better: "lower"},
}

// contractJSON renders BENCHMARK.json.
func contractJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	c := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		c.Workloads = append(c.Workloads, wl{w.name, w.why})
	}
	out, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

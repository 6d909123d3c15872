# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet lint test race bench profile fuzz ci experiments examples load cover clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	$(GO) run ./cmd/calint -json ./... > /dev/null

# Protocol-invariant static analysis: eight checks — detrand, wallclock,
# maporder, errdrop, errflow, mutexhold, lockorder, bufownership — over one
# call graph, one summary table and one flow interpreter (DESIGN.md §2.7;
# `go run ./cmd/calint -explain <check>` prints a check's contract).
lint:
	$(GO) run ./cmd/calint ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

short:
	$(GO) test -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Capture CPU and heap profiles for the headline decode benchmark (override
# PROFILE_BENCH/PROFILE_PKG to profile something else). go test drops the
# test binary (*.test) next to the profiles; `go tool pprof cpu.prof` finds
# it automatically.
PROFILE_BENCH ?= BenchmarkDecodeInterpolated_n256_k171_64KiB
PROFILE_PKG ?= ./internal/rs/
profile:
	$(GO) test -run '^$$' -bench '$(PROFILE_BENCH)' -benchmem \
		-cpuprofile cpu.prof -memprofile mem.prof $(PROFILE_PKG)
	@echo "profiles: cpu.prof mem.prof (inspect with: $(GO) tool pprof cpu.prof)"

# Short fuzzing smoke over the panic-free decode surfaces: the stream frame
# codec (copying and borrowing decoders), the Π_ℓBA+ tuple decoder, the
# Π_ℓBA+ nested lanes' shared encoding against the per-lane encode, the
# checkpoint WAL replay, and the mirrored-WAL scrub/repair pass; and over
# the bitstr word kernels against their bit-at-a-time oracles; over the
# quorum vocabulary (transport.Tally and the picks in ba, baplus, highcostca)
# against the per-package functions it replaced; over FirstPerSender against
# its set-based oracle; over the lane frame; over HIGHCOSTCA's trimming and
# ordering of byte naturals against math/big; over
# the session demux's merge-join against its map-based oracle; and over
# ba.Bits' Definition 2 at n = 4 against the tape adversary. Raise
# FUZZTIME for a real campaign. The wire
# patterns are anchored because go test refuses a -fuzz pattern that matches
# more than one target.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzReadFrame$$' -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -run '^$$' -fuzz 'FuzzReadFrameInto$$' -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzAdmission -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime $(FUZZTIME) ./internal/baplus/
	$(GO) test -run '^$$' -fuzz FuzzNestedLanes -fuzztime $(FUZZTIME) ./internal/baplus/
	$(GO) test -run '^$$' -fuzz FuzzInspectState -fuzztime $(FUZZTIME) ./internal/checkpoint/
	$(GO) test -run '^$$' -fuzz FuzzScrub -fuzztime $(FUZZTIME) ./internal/checkpoint/
	$(GO) test -run '^$$' -fuzz FuzzKernelsVsReference -fuzztime $(FUZZTIME) ./internal/bitstr/
	$(GO) test -run '^$$' -fuzz FuzzTally -fuzztime $(FUZZTIME) ./internal/transport/
	$(GO) test -run '^$$' -fuzz FuzzFirstPerSender -fuzztime $(FUZZTIME) ./internal/transport/
	$(GO) test -run '^$$' -fuzz FuzzLanes -fuzztime $(FUZZTIME) ./internal/transport/
	$(GO) test -run '^$$' -fuzz FuzzKingLanes -fuzztime $(FUZZTIME) ./internal/ba/
	$(GO) test -run '^$$' -fuzz FuzzBitsTape -fuzztime $(FUZZTIME) ./internal/ba/
	$(GO) test -run '^$$' -fuzz FuzzTCPicks -fuzztime $(FUZZTIME) ./internal/ba/
	$(GO) test -run '^$$' -fuzz FuzzPlusPicks -fuzztime $(FUZZTIME) ./internal/baplus/
	$(GO) test -run '^$$' -fuzz FuzzNatAtLeast -fuzztime $(FUZZTIME) ./internal/highcostca/
	$(GO) test -run '^$$' -fuzz FuzzNatOrder -fuzztime $(FUZZTIME) ./internal/highcostca/
	$(GO) test -run '^$$' -fuzz FuzzOptionLanes -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzDemux -fuzztime $(FUZZTIME) ./internal/sessmux/

# Minimal CI entry point (vet + build + tests + race on the perf-critical
# packages); scripts/ci.sh is the same thing for environments without make.
ci:
	./scripts/ci.sh

cover:
	$(GO) test -cover ./...

# Re-pin every reproduction experiment table (internal/experiments/
# testdata/etables); without -update the same command checks them.
experiments:
	$(GO) test ./internal/experiments -run TestETables -update

# Session-mux load run: the benchmark's closed-loop workload — waves of 64
# concurrent muxed Π_ℤ sessions over a 16-party loopback TCP mesh, rejoin
# on, every agreement verified (LOAD_FLAGS="-workload mux_open" for the
# open-loop arrival process, "-trace 1" for the per-layer ledger).
LOAD_FLAGS ?= -workload mux_closed
load:
	$(GO) run ./bench $(LOAD_FLAGS)

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/sensornet
	$(GO) run ./examples/oracle
	$(GO) run ./examples/clockagree
	$(GO) run ./examples/drones
	$(GO) run ./examples/fedlearn
	$(GO) run ./examples/tcpdeploy

clean:
	$(GO) clean ./...
